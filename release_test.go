package qosalloc_test

import (
	"context"
	"errors"
	"testing"

	"qosalloc/internal/alloc"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/fleet"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/serve"
)

// releaseStack is one layer a client releases tasks through, over its
// own paper-platform run-time system.
type releaseStack struct {
	name     string
	sys      *rtsys.System
	allocate func() (rtsys.TaskID, error)
	release  func(rtsys.TaskID) error
	// failAll fails every device and runs the layer's recovery sweep.
	failAll func()
}

func paperDevices() []device.Device {
	return []device.Device{
		device.NewFPGA("fpga0", []device.Slot{
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
		}, 66),
		device.NewProcessor("dsp0", casebase.TargetDSP, 1000, 128*1024),
		device.NewProcessor("gpp0", casebase.TargetGPP, 1000, 256*1024),
	}
}

func failDevices(t *testing.T, sys *rtsys.System) {
	for _, d := range sys.Devices() {
		if _, err := sys.FailDevice(d.Name()); err != nil {
			t.Error(err)
		}
	}
}

func releaseStacks(t *testing.T, cb *casebase.CaseBase) []releaseStack {
	t.Helper()
	newSys := func() *rtsys.System {
		repo := device.NewRepository(64)
		if err := repo.PopulateFromCaseBase(cb); err != nil {
			t.Fatal(err)
		}
		return rtsys.NewSystem(repo, paperDevices()...)
	}
	req := casebase.PaperRequest()

	msys := newSys()
	m := alloc.New(retrieval.NewEngine(cb, retrieval.Options{}), msys, alloc.Options{})
	mgr := releaseStack{
		name: "Manager", sys: msys,
		allocate: func() (rtsys.TaskID, error) {
			d, err := m.Request("app", req, 5)
			if err != nil {
				return 0, err
			}
			return d.Task.ID, nil
		},
		release: m.Release,
		failAll: func() {
			failDevices(t, msys)
			m.RecoverFromFaults()
		},
	}

	svc := serve.New(cb, newSys(), serve.Config{})
	t.Cleanup(svc.Close)
	service := releaseStack{
		name: "Service", sys: svc.System(),
		allocate: func() (rtsys.TaskID, error) {
			d, err := svc.Allocate(context.Background(), "app", req, 5)
			if err != nil {
				return 0, err
			}
			return d.Task.ID, nil
		},
		release: svc.Release,
		failAll: func() {
			svc.Exclusive(func() {
				failDevices(t, svc.System())
				svc.Manager().RecoverFromFaults()
			})
		},
	}

	f := fleet.New(retrieval.NewEngine(cb, retrieval.Options{}), fleet.Options{})
	node, err := f.AddNode("node0", 64, paperDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	fl := releaseStack{
		name: "fleet", sys: node.System(),
		allocate: func() (rtsys.TaskID, error) {
			p, err := f.Allocate("tenant", "app", req, 5)
			if err != nil {
				return 0, err
			}
			return p.Task, nil
		},
		release: func(id rtsys.TaskID) error { return f.Release("node0", id) },
		failAll: func() {
			failDevices(t, node.System())
			f.RecoverAll()
		},
	}
	return []releaseStack{mgr, service, fl}
}

// TestReleaseOfFinishedTask pins the error class of releasing a task
// that has finished, now that finished tasks leave the run-time system:
// it is still a *rtsys.TransitionError from Done, whether a client
// release, a fault rejection or a tentative placement finished it. A
// handle never issued is a different error.
func TestReleaseOfFinishedTask(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	// No configuration of this variant is in the repository, so Place
	// fails after CanPlace passed and TryPlace completes its tentative
	// task.
	unfetchable := &casebase.Implementation{ID: 99, Target: casebase.TargetGPP,
		Foot: casebase.Footprint{CPULoad: 10, MemBytes: 1024}}
	for _, st := range releaseStacks(t, cb) {
		t.Run(st.name, func(t *testing.T) {
			finished := map[string]rtsys.TaskID{}

			released, err := st.allocate()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.release(released); err != nil {
				t.Fatal(err)
			}
			finished["client release"] = released

			if _, _, err := alloc.NewMechanism(cb, st.sys).TryPlace("app", casebase.TypeFIREqualizer, unfetchable, 5); err == nil {
				t.Fatal("placing an unfetchable variant succeeded")
			}
			rejected, err := st.allocate()
			if err != nil {
				t.Fatal(err)
			}
			if rejected-1 <= released {
				t.Fatalf("TryPlace issued no tentative task between %d and %d", released, rejected)
			}
			finished["tentative placement"] = rejected - 1

			st.failAll()
			if _, live := st.sys.Task(rejected); live {
				t.Fatalf("task %d survived the loss of every device", rejected)
			}
			finished["fault rejection"] = rejected

			for how, id := range finished {
				err := st.release(id)
				var te *rtsys.TransitionError
				if !errors.Is(err, rtsys.ErrBadTransition) || !errors.As(err, &te) || te.From != rtsys.Done || te.Task != id {
					t.Errorf("release of task %d finished by %s: %v, want a TransitionError from done", id, how, err)
				}
			}
			if err := st.release(rejected + 100); err == nil || errors.Is(err, rtsys.ErrBadTransition) {
				t.Errorf("release of a never-issued task: %v, want an unknown-task error", err)
			}
		})
	}
}
