package swret

import (
	"fmt"

	"qosalloc/internal/casebase"
	"qosalloc/internal/fixed"
	"qosalloc/internal/mb32"
	"qosalloc/internal/memlist"
)

// Additional register conventions of the n-best routine.
const (
	// RegNBestBase (input): byte address of the result array
	// (n entries of two halfwords: similarity, implementation ID).
	RegNBestBase = 26
	// RegNBestN (input): requested list length n.
	RegNBestN = 27
	// RegNBestCount (output): number of valid entries delivered.
	RegNBestCount = 28
)

// SourceNBest is the §5 n-most-similar retrieval in software: identical
// scoring to Source, but instead of a single running best it maintains a
// descending-sorted array of the n best (similarity, ID) pairs with an
// insertion scan and a shift loop — the same data structure the hardware
// extension keeps in its register file. The implementation-list scan
// pointer lives in r29 here because r5 and r7 double as insertion-scan
// scratch after the type search finishes.
const SourceNBest = `
; QoS retrieval, n most similar variants (§5 extension).
; inputs:  r20 = supplemental base, r21 = request base,
;          r26 = result array base, r27 = n
; outputs: r28 = delivered count, result array sorted best-first,
;          r25 = error (0 ok, 1 type not found)
start:
	lhu  r3, r21, 0          ; requested function type
	addi r5, r0, 0           ; tp = tree base
	addi r24, r0, 32767      ; Q15 one
	addi r28, r0, 0          ; count = 0
typescan:
	lhu  r6, r5, 0
	beqz r6, notfound
	sub  r22, r6, r3
	beqz r22, typefound
	addi r5, r5, 4
	br   typescan
typefound:
	lhu  r29, r5, 2          ; implementation list pointer (words)
	add  r29, r29, r29       ; bytes
implscan:
	lhu  r12, r29, 0         ; implementation ID
	beqz r12, done
	lhu  r8, r29, 2          ; attribute list pointer (words)
	add  r8, r8, r8
	add  r9, r8, r0          ; cp
	add  r10, r20, r0        ; sp
	addi r11, r21, 2         ; rp
	addi r17, r0, 0          ; acc
reqattr:
	lhu  r13, r11, 0
	beqz r13, insbegin       ; all attributes scored: insert into array
	lhu  r14, r11, 2
	lhu  r23, r11, 4
suppscan:
	lhu  r6, r10, 0
	beqz r6, nextattr
	sub  r22, r6, r13
	beqz r22, suppfound
	bgtz r22, nextattr
	addi r10, r10, 8
	br   suppscan
suppfound:
	lhu  r16, r10, 6
cbscan:
	lhu  r6, r9, 0
	beqz r6, nextattr
	sub  r22, r6, r13
	beqz r22, cbfound
	bgtz r22, nextattr
	addi r9, r9, 4
	br   cbscan
cbfound:
	lhu  r6, r9, 2
	addi r9, r9, 4
	sub  r22, r14, r6
	bgez r22, absok
	sub  r22, r6, r14
absok:
	mul  r22, r22, r16
	srli r22, r22, 1
	sub  r22, r24, r22
	bgez r22, sok
	addi r22, r0, 0
sok:
	mul  r22, r22, r23
	srli r22, r22, 15
	add  r17, r17, r22
	sub  r22, r24, r17
	bgez r22, nextattr
	add  r17, r24, r0
nextattr:
	addi r11, r11, 6
	br   reqattr

; ---- sorted insertion into the result array --------------------------
insbegin:
	addi r5, r0, 0           ; i = 0
	add  r4, r26, r0         ; p = &entry[0]
insscan:
	sub  r22, r5, r28        ; i - count
	bgez r22, insert         ; i == count: append position found
	lhu  r6, r4, 0           ; entry[i].sim
	sub  r22, r17, r6        ; acc - sim
	bgtz r22, insert         ; strictly better: insert at i
	addi r5, r5, 1
	addi r4, r4, 4
	br   insscan
insert:
	sub  r22, r5, r27        ; i - n
	bgez r22, nextimpl       ; i >= n: does not qualify
	add  r7, r28, r0         ; j = min(count, n-1): last slot to fill
	sub  r22, r7, r27
	bltz r22, shiftloop
	addi r7, r27, -1
shiftloop:
	sub  r22, r7, r5         ; while j > i: entry[j] = entry[j-1]
	blez r22, store
	slli r22, r7, 2
	add  r22, r26, r22       ; &entry[j]
	lhu  r6, r22, -4
	sh   r6, r22, 0
	lhu  r6, r22, -2
	sh   r6, r22, 2
	addi r7, r7, -1
	br   shiftloop
store:
	slli r22, r5, 2
	add  r22, r26, r22
	sh   r17, r22, 0         ; similarity
	sh   r12, r22, 2         ; implementation ID
	addi r28, r28, 1         ; count = min(count+1, n)
	sub  r22, r28, r27
	blez r22, nextimpl
	add  r28, r27, r0
nextimpl:
	addi r29, r29, 4
	br   implscan
done:
	addi r25, r0, 0
	halt
notfound:
	addi r25, r0, 1
	halt
`

// nbestProgram is the assembled routine, built once.
var nbestProgram = mb32.MustAssemble(SourceNBest)

// NBestEntry is one delivered result.
type NBestEntry struct {
	ImplID uint16
	Sim    fixed.Q15
}

// NBestResult is the n-best routine's outcome.
type NBestResult struct {
	Entries      []NBestEntry
	Cycles       uint64
	Instructions uint64
}

// RetrieveN runs the software n-best retrieval: the up-to-n most
// similar implementations of the requested type, best first.
func (r *Runner) RetrieveN(cb *casebase.CaseBase, req casebase.Request, n int) (NBestResult, error) {
	if n <= 0 {
		return NBestResult{}, fmt.Errorf("swret: n must be positive, got %d", n)
	}
	if err := req.Validate(cb); err != nil {
		return NBestResult{}, err
	}
	tree, err := memlist.EncodeTree(cb)
	if err != nil {
		return NBestResult{}, err
	}
	supp := memlist.EncodeSupplemental(cb.Registry())
	reqImg, err := memlist.EncodeRequest(req)
	if err != nil {
		return NBestResult{}, err
	}

	lay := LayoutFor(tree, supp, reqImg)
	arrayBase := align4(lay.ReqBase + reqImg.Size())
	memBytes := arrayBase + 4*n + 64
	cpu := mb32.New(nbestProgram, memBytes)
	cpu.Cost = r.costs
	if err := cpu.LoadHalfwords(lay.TreeBase, tree.Words); err != nil {
		return NBestResult{}, err
	}
	if err := cpu.LoadHalfwords(lay.SuppBase, supp.Words); err != nil {
		return NBestResult{}, err
	}
	if err := cpu.LoadHalfwords(lay.ReqBase, reqImg.Words); err != nil {
		return NBestResult{}, err
	}
	cpu.Regs[RegSuppBase] = int32(lay.SuppBase)
	cpu.Regs[RegReqBase] = int32(lay.ReqBase)
	cpu.Regs[RegNBestBase] = int32(arrayBase)
	cpu.Regs[RegNBestN] = int32(n)

	cycles, err := cpu.Run(50_000_000)
	if err != nil {
		return NBestResult{}, err
	}
	if cpu.Regs[RegError] != 0 {
		return NBestResult{Cycles: cycles}, fmt.Errorf("swret: requested type not found in case base")
	}
	count := int(cpu.Regs[RegNBestCount])
	out := NBestResult{Cycles: cycles, Instructions: cpu.Stats.Retired}
	for i := 0; i < count; i++ {
		a := arrayBase + 4*i
		sim := uint16(cpu.Mem[a]) | uint16(cpu.Mem[a+1])<<8
		id := uint16(cpu.Mem[a+2]) | uint16(cpu.Mem[a+3])<<8
		out.Entries = append(out.Entries, NBestEntry{ImplID: id, Sim: fixed.Q15(sim)})
	}
	return out, nil
}
