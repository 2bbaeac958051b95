package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"sos/internal/device"
	"sos/internal/ecc"
)

// TestMetricListsMatchBenchmarkJSON pins the harness's output surface to
// the metric lists BENCHMARK.json declares, names and units alike.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []def, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: harness has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: harness %s (%s), BENCHMARK.json %s (%s)",
					what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

// TestTracedSchemeKeepsInPlacePaths checks the ECC wrapper exposes the
// in-place encoder and decoder, so the batched datapath keeps its
// allocation-free paths when traced.
func TestTracedSchemeKeepsInPlacePaths(t *testing.T) {
	ts, err := newTracedScheme(device.SOSStreams()[0].Scheme)
	if err != nil {
		t.Fatal(err)
	}
	var s ecc.Scheme = ts
	if _, ok := s.(ecc.IntoEncoder); !ok {
		t.Error("traced scheme is not an ecc.IntoEncoder")
	}
	if _, ok := s.(ecc.IntoDecoder); !ok {
		t.Error("traced scheme is not an ecc.IntoDecoder")
	}
	if _, err := newTracedScheme(ecc.DetectOnly{}); err == nil {
		t.Error("wrapping a scheme without in-place paths succeeded")
	}
}

// TestTracedRunMatchesUntraced runs each sim workload, shortened, on
// the traced stack and through sos.New + core.Run: the reports must be
// byte-identical, and the wrappers must have seen the work.
func TestTracedRunMatchesUntraced(t *testing.T) {
	cases := map[string]simWorkload{
		"sim-ftl-years":     simFTLYears,
		"sim-audit-dense":   simAuditDense,
		"sim-zns-longevity": simZNSLongevity,
	}
	days := map[string]int{"sim-ftl-years": 60, "sim-audit-dense": 2, "sim-zns-longevity": 60}
	for name, w := range cases {
		t.Run(name, func(t *testing.T) {
			w.days = days[name]
			for _, seed := range []uint64{0, 7} {
				plain, err := w.untracedRep(seed)
				if err != nil {
					t.Fatal(err)
				}
				traced, err := w.tracedRep(seed)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(plain.report, traced.report) {
					t.Fatalf("seed %d: traced report differs:\n%s\nuntraced:\n%s", seed, traced.report, plain.report)
				}
				l := traced.layers
				if l["core.tick_n"] != float64(plain.out.events) {
					t.Errorf("seed %d: %v ticks traced for %d events", seed, l["core.tick_n"], plain.out.events)
				}
				if l["classify.score_n"] == 0 {
					t.Errorf("seed %d: no classifier calls traced", seed)
				}
				if w.audit && l["ecc.decode_n"] == 0 {
					t.Errorf("seed %d: no decodes traced on a dense-payload run", seed)
				}
			}
		})
	}
}

// TestFleetDaemonMatchesInProcess drives one repetition through the
// daemon and checks every response against an in-process sos.Fleet.
func TestFleetDaemonMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 512-shard fleet twice")
	}
	c := newClient()
	r, err := runFleetRep(c, 3, &routeSpans{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleetReference(3)
	if err != nil {
		t.Fatal(err)
	}
	var ck checks
	verifyFleet(&ck, []fleetRep{r}, want)
	if ck.failed != 0 || ck.attempted != 1+3*fleetAdvances {
		t.Fatalf("%d of %d exchanges failed", ck.failed, ck.attempted)
	}
	if r.replays != fleetShards*fleetAdvances && r.final.Totals.Expired == 0 {
		t.Errorf("%d shard replays, want %d", r.replays, fleetShards*fleetAdvances)
	}
}
