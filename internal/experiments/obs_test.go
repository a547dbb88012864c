package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"qosalloc/internal/fault"
)

// TestObsGoldenCounters pins the exact counter values of the scripted
// acceptance scenario. The registry is fed only simulation-time data, so
// any drift here means an instrumentation site moved or the simulation
// lost replay stability — both deliberate-change-only events.
func TestObsGoldenCounters(t *testing.T) {
	plan, err := fault.ParsePlan(scriptedPlan)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := ObsRun(ObsSpec{Requests: 120, Seed: 11, Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"qos_alloc_requests_total":                     120,
		"qos_alloc_placed_total":                       120,
		"qos_alloc_token_hits_total":                   24,
		"qos_alloc_retrievals_total":                   96,
		"qos_alloc_recovered_total":                    2,
		"qos_alloc_degraded_total":                     1,
		"qos_alloc_fault_rejected_total":               0,
		"qos_alloc_infeasible_total":                   0,
		"qos_retrieval_total":                          98,
		"qos_retrieval_impls_scored_total":             980,
		"qos_retrieval_attrs_compared_total":           3920,
		"qos_retrieval_no_match_total":                 0,
		"qos_rtsys_device_faults_total":                0,
		"qos_rtsys_slot_faults_total":                  2,
		`qos_fault_injections_total{kind="slotfail"}`:  2,
		`qos_fault_injections_total{kind="devfail"}`:   0,
		`qos_fault_injections_total{kind="configerr"}`: 4,
		`qos_fault_injections_total{kind="seu"}`:       1,
		"qos_fault_no_victim_total":                    1,
		`qos_rtsys_transitions_total{event="create"}`:  120,
		`qos_rtsys_transitions_total{event="strand"}`:  2,
		`qos_rtsys_transitions_total{event="fail"}`:    0,
	}
	for name, wv := range want {
		got, ok := reg.CounterValue(name)
		if !ok {
			t.Errorf("counter %s not registered", name)
			continue
		}
		if got != wv {
			t.Errorf("%s = %d, want %d", name, got, wv)
		}
	}
}

// TestObsReplayIsBitExact asserts the determinism contract over the
// whole registry, not just a counter subset: two runs of the same spec
// produce identical snapshots — every counter, gauge, histogram bucket
// and trace event (timestamps included).
func TestObsReplayIsBitExact(t *testing.T) {
	a, err := ObsRun(ObsSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ObsRun(ObsSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Error("replay produced a different snapshot")
	}
	// And the Prometheus exposition is byte-identical.
	var pa, pb bytes.Buffer
	if err := a.WriteProm(&pa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteProm(&pb); err != nil {
		t.Fatal(err)
	}
	if pa.String() != pb.String() {
		t.Error("replay produced different Prometheus exposition text")
	}
}

func TestObsRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := Obs(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, marker := range []string{
		"qos_alloc_requests_total", "qos_fault_injections_total",
		"qos_rtsys_wait_micros", "trace rings:", "bit-exact",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q", marker)
		}
	}
}
