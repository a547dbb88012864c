package alloc

import (
	"errors"
	"math"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/rtsys"
)

func TestRecoverDegradesAcrossTargetClasses(t *testing.T) {
	m, sys := platform(t, Options{})
	d, err := m.Request("mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Device != "dsp0" {
		t.Fatalf("decision = %+v, want dsp0", d)
	}
	// The DSP dies; its task is stranded and auto-requeued.
	stranded, err := sys.FailDevice("dsp0")
	if err != nil {
		t.Fatal(err)
	}
	if len(stranded) != 1 || stranded[0].ID != d.Task.ID {
		t.Fatalf("stranded = %+v", stranded)
	}

	recs := m.RecoverFromFaults()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %d", len(recs))
	}
	rec := recs[0]
	if rec.Task != d.Task.ID || rec.Decision == nil || rec.Report != nil {
		t.Fatalf("recovery = %+v", rec)
	}
	// The whole DSP class is excluded (its only device failed), so
	// degrade-and-retry falls down the N-best list to the FPGA variant.
	if rec.Decision.Impl != 1 || rec.Decision.Target != casebase.TargetFPGA {
		t.Errorf("recovered onto %+v, want FPGA impl 1", rec.Decision)
	}
	if math.Abs(rec.Decision.Similarity-0.85) > 0.01 {
		t.Errorf("recovered similarity = %v", rec.Decision.Similarity)
	}
	// 0.96 → 0.85 is a degradation, and the report names what was lost.
	deg := rec.Decision.Degraded
	if deg == nil {
		t.Fatal("degradation not reported")
	}
	if deg.FromImpl != 2 || deg.ToImpl != 1 || deg.ToSim >= deg.FromSim {
		t.Errorf("degradation = %+v", deg)
	}
	if len(deg.LostAttrs) == 0 {
		t.Error("degradation must name the lost QoS attributes")
	}
	if d.Task.State != rtsys.Configuring {
		t.Errorf("task state = %v", d.Task.State)
	}
	st := m.Stats()
	if st.Recovered != 1 || st.Degraded != 1 || st.FaultRejected != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Idempotent: a second sweep finds nothing stranded.
	if again := m.RecoverFromFaults(); len(again) != 0 {
		t.Errorf("second sweep = %+v", again)
	}
}

// TestDegradedRecoveryWalksOnce pins that a degraded recovery walks the
// task's type once: Degraded reads the breakdowns of the RetrieveAll
// list the recovery already holds instead of walking again.
func TestDegradedRecoveryWalksOnce(t *testing.T) {
	m, sys := platform(t, Options{})
	if _, err := m.Request("mp3", casebase.PaperRequest(), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FailDevice("dsp0"); err != nil {
		t.Fatal(err)
	}
	before := m.engine.Stats().Retrievals
	recs := m.RecoverFromFaults()
	if len(recs) != 1 || recs[0].Decision == nil || recs[0].Decision.Degraded == nil {
		t.Fatalf("recoveries = %+v, want one degraded", recs)
	}
	if walks := m.engine.Stats().Retrievals - before; walks != 1 {
		t.Errorf("a degraded recovery walked %d times, want 1", walks)
	}
}

func TestRecoverRejectsWithDegradationReport(t *testing.T) {
	m, sys := platform(t, Options{})
	d, err := m.Request("mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the whole platform: nothing can host any variant.
	for _, name := range []device.ID{"dsp0", "fpga0", "gpp0"} {
		if _, err := sys.FailDevice(name); err != nil {
			t.Fatal(err)
		}
	}
	recs := m.RecoverFromFaults()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %d", len(recs))
	}
	rec := recs[0]
	if rec.Decision != nil || rec.Report == nil {
		t.Fatalf("recovery = %+v", rec)
	}
	rep := rec.Report
	if rep.Task != d.Task.ID || rep.App != "mp3" {
		t.Errorf("report = %+v", rep)
	}
	if len(rep.Excluded) != 3 {
		t.Errorf("excluded = %v, want all three target classes", rep.Excluded)
	}
	// Every candidate's target is excluded, so none was even tried and
	// every requested attribute is lost.
	if len(rep.Tried) != 0 {
		t.Errorf("tried = %+v", rep.Tried)
	}
	if len(rep.LostAttrs) != len(casebase.PaperRequest().Constraints) {
		t.Errorf("lost attrs = %v", rep.LostAttrs)
	}
	// The report is a structured error unwrapping to the sentinel.
	if !errors.Is(rep, ErrNoViableVariant) {
		t.Error("report must wrap ErrNoViableVariant")
	}
	if rep.Error() == "" {
		t.Error("report must render")
	}
	// The rejected task is finalized, not dropped.
	if d.Task.State != rtsys.Done {
		t.Errorf("rejected task state = %v", d.Task.State)
	}
	if m.Stats().FaultRejected != 1 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

func TestRecoverRequeuesExhaustedTask(t *testing.T) {
	m, sys := platform(t, Options{})
	sys.RetryLimit = 0 // first configuration error fails the placement
	d, err := m.Request("mp3", casebase.PaperRequest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ConfigError(d.Task); err != nil {
		t.Fatal(err)
	}
	if d.Task.State != rtsys.Failed {
		t.Fatalf("task state = %v", d.Task.State)
	}
	recs := m.RecoverFromFaults()
	if len(recs) != 1 || recs[0].Decision == nil {
		t.Fatalf("recoveries = %+v", recs)
	}
	// The platform is intact, so the task comes back on the same variant
	// with no degradation.
	if recs[0].Decision.Impl != d.Impl || recs[0].Decision.Degraded != nil {
		t.Errorf("recovery = %+v", recs[0].Decision)
	}
	if d.Task.State != rtsys.Configuring {
		t.Errorf("task state = %v", d.Task.State)
	}
}

func TestErrNoFeasibleUnwrapsSentinel(t *testing.T) {
	err := error(&ErrNoFeasible{})
	if !errors.Is(err, ErrNoViableVariant) {
		t.Error("ErrNoFeasible must wrap ErrNoViableVariant")
	}
}
