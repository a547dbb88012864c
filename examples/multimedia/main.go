// Multimedia drives a contended infotainment platform: an MP3 player and
// a video player compete for a DSP and one FPGA. The scenario shows the
// allocation manager falling back to second-best variants when the best
// match has no capacity, offering alternatives when nothing fits, and
// skipping retrieval on repeated calls via bypass tokens.
package main

import (
	"errors"
	"fmt"
	"log"

	"qosalloc"
)

func main() {
	cb, _, err := qosalloc.InfotainmentCaseBase()
	if err != nil {
		log.Fatal(err)
	}
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		log.Fatal(err)
	}
	// A deliberately tight platform: one FPGA slot, one half-loaded DSP.
	rt := qosalloc.NewRuntime(repo,
		qosalloc.NewFPGADevice("fpga0", []qosalloc.FPGASlot{
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
		}, 66),
		qosalloc.NewProcessorDevice("dsp0", qosalloc.TargetDSP, 800, 128<<10),
		qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, 1000, 256<<10),
	)
	m := qosalloc.NewAllocationManager(cb, rt,
		qosalloc.WithThreshold(0.3), qosalloc.WithNBest(3), qosalloc.WithBypassTokens(true))

	eqReq := qosalloc.NewRequest(1, // audio equalizer
		qosalloc.Constraint{ID: 1, Value: 16},
		qosalloc.Constraint{ID: 3, Value: 1},
		qosalloc.Constraint{ID: 4, Value: 44},
	).EqualWeights()
	videoReq := qosalloc.NewRequest(3, // video decoder
		qosalloc.Constraint{ID: 1, Value: 16},
		qosalloc.Constraint{ID: 5, Value: 30},
		qosalloc.Constraint{ID: 6, Value: 10},
	).EqualWeights()

	// 1. The MP3 player grabs the equalizer: the DSP variant wins.
	d1, err := m.Request("mp3-player", eqReq, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eq #1   -> impl %d on %s (S=%.2f)\n", d1.Impl, d1.Device, d1.Similarity)

	// 2. The video player needs its decoder: DSP is now too loaded for
	// the DSP variant, so the FPGA variant places.
	d2, err := m.Request("video-player", videoReq, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("video   -> impl %d on %s (S=%.2f)\n", d2.Impl, d2.Device, d2.Similarity)

	// 3. A second equalizer: DSP full, FPGA slot taken — the manager
	// falls back down the n-best list to the GPP variant.
	d3, err := m.Request("mp3-player-2", eqReq, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eq #2   -> impl %d on %s (S=%.2f)  [fallback]\n", d3.Impl, d3.Device, d3.Similarity)

	// 4. A second video decode cannot fit anywhere: the manager offers
	// the scored alternatives so the application can decide.
	_, err = m.Request("video-player-2", videoReq, 4)
	var nf *qosalloc.ErrNoFeasible
	if errors.As(err, &nf) {
		fmt.Printf("video#2 -> infeasible; %d alternatives offered:\n", len(nf.Alternatives))
		for _, a := range nf.Alternatives {
			fmt.Printf("            impl %d (%s) S=%.2f\n", a.Impl, a.Target, a.Similarity)
		}
	} else if err != nil {
		log.Fatal(err)
	}

	// 5. The first player releases and re-requests the identical
	// equalizer. The cached token still pins eq #2's fallback variant,
	// whose GPP is busy — so this call transparently falls back to a
	// full retrieval and refreshes the token with the DSP variant.
	if err := m.Release(d1.Task.ID); err != nil {
		log.Fatal(err)
	}
	d5, err := m.Request("mp3-player", eqReq, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eq #3   -> impl %d on %s via bypass token: %v (stale token refreshed)\n",
		d5.Impl, d5.Device, d5.ViaToken)

	// 6. The next identical call hits the refreshed token: the variant
	// is pinned and no retrieval runs — "only an availability check on
	// the function and its allocated resources" (§3).
	if err := m.Release(d5.Task.ID); err != nil {
		log.Fatal(err)
	}
	d6, err := m.Request("mp3-player", eqReq, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eq #4   -> impl %d on %s via bypass token: %v\n", d6.Impl, d6.Device, d6.ViaToken)

	st := m.Stats()
	fmt.Printf("\nmanager stats: %d requests, %d retrievals, %d token hits, %d infeasible\n",
		st.Requests, st.Retrievals, st.TokenHits, st.Infeasible)
}
