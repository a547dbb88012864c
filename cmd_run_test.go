package qosalloc_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qosalloc"
)

// TestCommandsRun smoke-tests every CLI end to end: assemble the
// documented invocations, run them, and check for the expected output
// markers — the commands are the product surface a downstream user
// touches first.
func TestCommandsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("commands run the go tool; skipped in -short mode")
	}
	tmp := t.TempDir()
	cbJSON := filepath.Join(tmp, "cb.json")
	cbImg := filepath.Join(tmp, "cb.bin")
	asm := filepath.Join(tmp, "t.s")
	if err := os.WriteFile(asm, []byte("addi r1, r0, 7\nhalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// cbrquery -load reads this fixture; write it up front so the
	// parallel subtests carry no ordering dependency on cbrgen.
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.Create(cbJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := qosalloc.SaveCaseBase(jf, cb); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"repro-list", []string{"run", "./cmd/repro", "-list"},
			[]string{"table1", "speedup", "bitwidth"}},
		{"repro-table1", []string{"run", "./cmd/repro", "-exp", "table1"},
			[]string{"S_global = 0.96", "best"}},
		{"cbrgen-paper", []string{"run", "./cmd/cbrgen", "-paper", "-dump", "-json", filepath.Join(tmp, "cb2.json"), "-image", cbImg},
			[]string{"2 types, 5 implementations", "FIR Equalizer", "wrote JSON"}},
		{"cbrquery-names", []string{"run", "./cmd/cbrquery", "-load", cbJSON,
			"-type", "1", "-c", "bitwidth=16", "-c", "output-mode=stereo", "-c", "sample-rate=40", "-n", "3"},
			[]string{"impl 2", "S = 0.9640", "#3 impl 3", "attr 4: req=40 impl=44 found=true s=0.8919 w=0.333"}},
		{"cbrquery-hw", []string{"run", "./cmd/cbrquery", "-engine", "hw",
			"-type", "1", "-c", "1=16", "-c", "3=1", "-c", "4=40"},
			[]string{"157 cycles"}},
		{"cbrquery-sw", []string{"run", "./cmd/cbrquery", "-engine", "sw",
			"-type", "1", "-c", "1=16", "-c", "3=1", "-c", "4=40"},
			[]string{"66 MHz"}},
		{"mbrun", []string{"run", "./cmd/mbrun", "-mem", "64", asm},
			[]string{"halted after", "r1", "CPI"}},
		{"mbrun-listing", []string{"run", "./cmd/mbrun", "-retrieval", "-list"},
			[]string{"lhu r3, r21, 0"}},
		{"sysim", []string{"run", "./cmd/sysim", "-stream", "50"},
			[]string{"fig. 1 application-mix", "retrievals:", "preemptions:"}},
		// The robustness acceptance scenario: permanent FPGA-slot
		// failures mid-run plus transient configuration errors must
		// complete with zero tasks dropped without a report.
		{"sysim-faults", []string{"run", "./cmd/sysim", "-stream", "60",
			"-faults", "20500:configerr:fpga0;30500:slotfail:fpga0:0;45500:slotfail:fpga0:1;50500:configerr:dsp0"},
			[]string{"scripted faults", "[fault]", "0 dropped", "fault path:"}},
		// The service layer (DESIGN.md §9): concurrent clients against
		// the sharded batching front end, then a deterministic batched
		// allocation pass — the placement count is seed-pinned.
		{"sysim-serve", []string{"run", "./cmd/sysim", "-serve", "-clients", "8", "-shards", "4", "-stream", "120"},
			[]string{"service mode: 8 clients, 4 shards", "retrieved:   120 ok, 0 failed",
				"batching:", "placed:      95 of 120"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, "go", tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v failed: %v\n%s", tc.args, err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}
