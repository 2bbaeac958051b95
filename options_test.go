package sos_test

import (
	"testing"

	"sos"
	"sos/internal/classify"
	"sos/internal/flash"
)

// TestNewSystemEquivalentToNew pins the redesign's compatibility
// promise: the options path and the flat-Config path build identical
// systems.
func TestNewSystemEquivalentToNew(t *testing.T) {
	viaConfig, err := sos.New(sos.Config{
		Profile:               sos.ProfileSOS,
		Backend:               sos.BackendZNS,
		Seed:                  77,
		Threshold:             0.6,
		TranscodeBeforeDelete: true,
		TrainingFiles:         500,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	viaOptions, err := sos.NewSystem(
		sos.WithProfile(sos.ProfileSOS),
		sos.WithBackend(sos.BackendZNS),
		sos.WithSeed(77),
		sos.WithThreshold(0.6),
		sos.WithTranscode(),
		sos.WithTrainingFiles(500),
	)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if viaConfig.Config != viaOptions.Config {
		t.Fatalf("configs diverge:\n flat    %+v\n options %+v", viaConfig.Config, viaOptions.Config)
	}

	days := 30
	repA, err := viaConfig.RunPersonal(days, 0)
	if err != nil {
		t.Fatalf("flat run: %v", err)
	}
	repB, err := viaOptions.RunPersonal(days, 0)
	if err != nil {
		t.Fatalf("options run: %v", err)
	}
	if repA.FinalSmart != repB.FinalSmart {
		t.Fatalf("SMART diverges:\n flat    %+v\n options %+v", repA.FinalSmart, repB.FinalSmart)
	}
	if repA.Events != repB.Events || repA.EngineStats != repB.EngineStats {
		t.Fatalf("run outcomes diverge: %+v vs %+v", repA, repB)
	}
}

func TestWithConfigBridgesThenAmends(t *testing.T) {
	base := sos.Config{Seed: 5, Threshold: 0.8}
	sys, err := sos.NewSystem(sos.WithConfig(base), sos.WithSeed(9))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Config.Seed != 9 || sys.Config.Threshold != 0.8 {
		t.Fatalf("config = %+v, want seed 9 / threshold 0.8", sys.Config)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  sos.Option
	}{
		{"bad profile", sos.WithProfile(sos.Profile(99))},
		{"bad backend", sos.WithBackend(sos.Backend(99))},
		{"threshold high", sos.WithThreshold(1.5)},
		{"threshold low", sos.WithThreshold(-0.1)},
		{"zero corpus", sos.WithTrainingFiles(0)},
		{"nil classifier", sos.WithClassifier(nil)},
		{"zero queues", sos.WithQueues(0)},
		{"negative planes", sos.WithPlanes(-1)},
		{"negative trace cap", sos.WithTraceCap(-1)},
		{"negative scrub budget", sos.WithAudit(-1)},
	}
	for _, tc := range cases {
		if _, err := sos.NewSystem(tc.opt); err == nil {
			t.Errorf("%s: want construction error", tc.name)
		}
	}
}

func TestOptionImplications(t *testing.T) {
	sys, err := sos.NewSystem(sos.WithTraceCap(128))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if !sys.Config.Observe || sys.Config.TraceCap != 128 {
		t.Fatalf("WithTraceCap: config %+v", sys.Config)
	}
	sys, err = sos.NewSystem(sos.WithAudit(64))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if !sys.Config.Audit || sys.Config.ScrubBudget != 64 {
		t.Fatalf("WithAudit: config %+v", sys.Config)
	}
	sys, err = sos.NewSystem(sos.WithPrefs(classify.Prefs{KeepCameraRoll: true}))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Config.Prefs == nil || !sys.Config.Prefs.KeepCameraRoll {
		t.Fatal("WithPrefs did not land in config")
	}
	g := flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 16, Blocks: 64}
	sys, err = sos.NewSystem(sos.WithGeometry(g), sos.WithWorkers(3))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Config.Geometry != g || sys.Config.Workers != 3 {
		t.Fatalf("geometry/workers: config %+v", sys.Config)
	}
}

// TestParseBackendRoundTrip mirrors TestParseProfileRoundTrip: every
// declared backend survives MarshalText -> ParseBackend, and the parser
// is forgiving about case and padding but rejects unknown names.
func TestParseBackendRoundTrip(t *testing.T) {
	for _, b := range sos.Backends() {
		text, err := b.MarshalText()
		if err != nil {
			t.Fatalf("%v: MarshalText: %v", b, err)
		}
		back, err := sos.ParseBackend(string(text))
		if err != nil || back != b {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", text, back, err, b)
		}
		var u sos.Backend
		if err := u.UnmarshalText(text); err != nil || u != b {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, u, err)
		}
	}
	for in, want := range map[string]sos.Backend{
		" FTL ": sos.BackendFTL,
		"Zns":   sos.BackendZNS,
	} {
		if got, err := sos.ParseBackend(in); err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := sos.ParseBackend("nvme"); err == nil {
		t.Error("ParseBackend(nvme): want error")
	}
}

// TestParserNameSetsAgree pins the "single parser" property both CLIs
// rely on via flag.TextVar: the name set accepted by ParseBackend /
// ParseProfile is exactly the set produced by marshalling the declared
// values — no alias exists in one direction only.
func TestParserNameSetsAgree(t *testing.T) {
	if got := len(sos.Backends()); got != 2 {
		t.Fatalf("Backends() has %d entries, want 2", got)
	}
	if got := len(sos.Profiles()); got != 3 {
		t.Fatalf("Profiles() has %d entries, want 3", got)
	}
	for _, b := range sos.Backends() {
		name := b.String()
		if got, err := sos.ParseBackend(name); err != nil || got != b {
			t.Errorf("backend %q does not round-trip through its String", name)
		}
	}
	for _, p := range sos.Profiles() {
		name := p.String()
		if got, err := sos.ParseProfile(name); err != nil || got != p {
			t.Errorf("profile %q does not round-trip through its String", name)
		}
	}
	if got := len(sos.Placements()); got != 3 {
		t.Fatalf("Placements() has %d entries, want 3", got)
	}
	for _, p := range sos.Placements() {
		name := p.String()
		if got, err := sos.ParsePlacement(name); err != nil || got != p {
			t.Errorf("placement %q does not round-trip through its String", name)
		}
	}
}

// TestParsePlacementRoundTrip mirrors TestParseBackendRoundTrip for the
// -placement name set of sossim and the public API.
func TestParsePlacementRoundTrip(t *testing.T) {
	for _, p := range sos.Placements() {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatalf("%v: MarshalText: %v", p, err)
		}
		got, err := sos.ParsePlacement(string(text))
		if err != nil || got != p {
			t.Fatalf("ParsePlacement(%q) = %v, %v; want %v", text, got, err, p)
		}
		var u sos.Placement
		if err := u.UnmarshalText(text); err != nil || u != p {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, u, err)
		}
	}
	for in, want := range map[string]sos.Placement{
		" OFF ":     sos.PlacementOff,
		"Binary":    sos.PlacementBinary,
		"Longevity": sos.PlacementLongevity,
	} {
		if got, err := sos.ParsePlacement(in); err != nil || got != want {
			t.Errorf("ParsePlacement(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := sos.ParsePlacement("hot-cold"); err == nil {
		t.Error("ParsePlacement(hot-cold): want error")
	}
}

// TestWithPlacement covers the option path: the policy lands in config,
// unknown values are rejected, and longevity assembles a working system
// (regressor trained, bins calibrated) without error.
func TestWithPlacement(t *testing.T) {
	sys, err := sos.NewSystem(sos.WithPlacement(sos.PlacementLongevity))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Config.Placement != sos.PlacementLongevity {
		t.Fatalf("WithPlacement: config %+v", sys.Config)
	}
	if _, err := sos.NewSystem(sos.WithPlacement(sos.Placement(42))); err == nil {
		t.Fatal("WithPlacement(42): want error")
	}
}
