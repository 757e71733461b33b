package opt

import (
	"fmt"

	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
)

// Bytecode-level inlining, applied by the optimizing compiler before IR
// construction (the Jikes opt compiler inlines aggressively at its
// higher optimization levels; §3.2). Static calls are inlined directly;
// virtual calls are first devirtualized by closed-world class-hierarchy
// analysis (the universe cannot load classes at runtime), with an
// explicit null check standing in for the dispatch's receiver check.

// The inliner's budgets.
const (
	// maxCalleeSize is the largest callee body considered, in
	// bytecodes.
	maxCalleeSize = 48
	// maxGrowth caps the caller's size increase per pass, in
	// bytecodes.
	maxGrowth = 400
	// maxLocals caps the combined local-slot count (the GC map budget).
	maxLocals = 56
	// inlinePasses is the number of inlining sweeps (2 inlines through
	// one level of wrappers).
	inlinePasses = 2
)

// soleImplementation returns the single implementation a virtual call
// can dispatch to, or nil when the slot is polymorphic.
func soleImplementation(u *classfile.Universe, m *classfile.Method) *classfile.Method {
	var impl *classfile.Method
	for _, cl := range u.Classes() {
		if m.VSlot >= len(cl.VTable) {
			continue
		}
		// Only classes in m's hierarchy share its slot meaning.
		inHierarchy := false
		for c := cl; c != nil; c = c.Super {
			if c == m.Class {
				inHierarchy = true
				break
			}
		}
		if !inHierarchy {
			continue
		}
		cand := cl.VTable[m.VSlot]
		if impl == nil {
			impl = cand
		} else if impl != cand {
			return nil
		}
	}
	return impl
}

// inlinable reports whether callee can be spliced into a caller.
func inlinable(callee *classfile.Method) (*bytecode.Code, bool) {
	code, ok := callee.Code.(*bytecode.Code)
	if !ok || code == nil {
		return nil, false
	}
	if len(code.Instrs) > maxCalleeSize {
		return nil, false
	}
	return code, true
}

// InlineCalls returns a new verified Code for the caller with eligible
// call sites expanded, or the original code when nothing was inlined.
// The input code is never mutated (it is the method's canonical body).
func InlineCalls(u *classfile.Universe, code *bytecode.Code) (*bytecode.Code, error) {
	cur := code
	for pass := 0; pass < inlinePasses; pass++ {
		next, changed, err := inlineOnePass(u, cur)
		if err != nil {
			return nil, err
		}
		if !changed {
			break
		}
		cur = next
	}
	return cur, nil
}

func inlineOnePass(u *classfile.Universe, code *bytecode.Code) (*bytecode.Code, bool, error) {
	caller := code.Method

	// Select the call sites to expand under the growth budgets.
	type site struct {
		idx     int
		callee  *bytecode.Code
		virtual bool
	}
	var sites []site
	growth := 0
	locals := code.NumLocals
	consts := code.RefConsts
	for i, in := range code.Instrs {
		if in.Op != bytecode.OpInvokeStatic && in.Op != bytecode.OpInvokeVirtual {
			continue
		}
		target := u.Method(int(in.A))
		virtual := in.Op == bytecode.OpInvokeVirtual
		if virtual {
			impl := soleImplementation(u, target)
			if impl == nil {
				continue // polymorphic: keep the dispatch
			}
			target = impl
		}
		if target == caller {
			continue // no self-inlining
		}
		callee, ok := inlinable(target)
		if !ok {
			continue
		}
		extra := len(callee.Instrs) + len(target.Args) + 2*(callee.NumLocals-len(target.Args)) + 4
		if growth+extra > maxGrowth {
			continue
		}
		if locals+callee.NumLocals+1 > maxLocals {
			continue
		}
		growth += extra
		locals += callee.NumLocals + 1
		consts += callee.RefConsts
		sites = append(sites, site{idx: i, callee: callee, virtual: virtual})
	}
	if len(sites) == 0 {
		return code, false, nil
	}
	siteAt := make(map[int]site, len(sites))
	for _, s := range sites {
		siteAt[s.idx] = s
	}

	// Rebuild the instruction stream. newIdx maps old caller indices to
	// new positions (for branch retargeting).
	out := &bytecode.Code{
		Method:        caller,
		NumLocals:     code.NumLocals,
		LocalKinds:    append([]classfile.Kind(nil), code.LocalKinds...),
		RefConsts:     code.RefConsts,
		RefConstAddrs: append([]uint64(nil), code.RefConstAddrs...),
	}
	newIdx := make([]int, len(code.Instrs)+1)

	type fixup struct {
		at     int // instruction in out.Instrs whose A needs remapping
		target int // old caller index
	}
	var fixups []fixup

	emit := func(in bytecode.Instr) int {
		out.Instrs = append(out.Instrs, in)
		return len(out.Instrs) - 1
	}

	for i, in := range code.Instrs {
		newIdx[i] = len(out.Instrs)
		s, isSite := siteAt[i]
		if !isSite {
			cp := in
			if cp.Op.IsBranch() {
				fixups = append(fixups, fixup{at: len(out.Instrs), target: int(cp.A)})
			}
			emit(cp)
			continue
		}

		callee := s.callee
		target := callee.Method

		// Allocate fresh local slots for the callee body, plus one for
		// the return value.
		localBase := out.NumLocals
		out.NumLocals += callee.NumLocals
		out.LocalKinds = append(out.LocalKinds, callee.LocalKinds...)
		retSlot := -1
		if target.Ret != classfile.KindVoid {
			retSlot = out.NumLocals
			out.NumLocals++
			out.LocalKinds = append(out.LocalKinds, target.Ret)
		}
		constBase := out.RefConsts
		out.RefConsts += callee.RefConsts
		out.RefConstAddrs = append(out.RefConstAddrs, callee.RefConstAddrs...)

		// Store the arguments (on the stack, last argument on top) into
		// the callee's parameter slots; null-check devirtualized
		// receivers to preserve invokevirtual semantics.
		for a := len(target.Args) - 1; a >= 0; a-- {
			if a == 0 && s.virtual {
				emit(bytecode.Instr{Op: bytecode.OpDup})
				emit(bytecode.Instr{Op: bytecode.OpNullCheck})
			}
			emit(bytecode.Instr{Op: bytecode.OpStore, A: int64(localBase + a)})
		}
		// A real invocation gets a fresh zeroed frame every time; the
		// spliced body may re-execute (the call site can sit in a
		// loop), so its non-argument locals must be re-zeroed here.
		for slot := len(target.Args); slot < callee.NumLocals; slot++ {
			if callee.LocalKinds[slot] == classfile.KindRef {
				emit(bytecode.Instr{Op: bytecode.OpConstNull})
			} else {
				emit(bytecode.Instr{Op: bytecode.OpConstInt, A: 0})
			}
			emit(bytecode.Instr{Op: bytecode.OpStore, A: int64(localBase + slot)})
		}

		// Splice the body. Callee-internal branches are offset by the
		// splice position; returns become stores plus jumps to the end.
		bodyStart := len(out.Instrs)
		calleeIdx := make([]int, len(callee.Instrs))
		type calleeFixup struct {
			at     int
			target int // callee-internal index
		}
		var cfixups []calleeFixup
		var endFixups []int // instructions jumping to the splice end
		for ci, cin := range callee.Instrs {
			calleeIdx[ci] = len(out.Instrs)
			cp := cin
			switch {
			case cp.Op.IsBranch():
				cfixups = append(cfixups, calleeFixup{at: len(out.Instrs), target: int(cp.A)})
				emit(cp)
			case cp.Op == bytecode.OpLoad || cp.Op == bytecode.OpStore || cp.Op == bytecode.OpIInc:
				cp.A += int64(localBase)
				emit(cp)
			case cp.Op == bytecode.OpLoadConst:
				cp.A += int64(constBase)
				emit(cp)
			case cp.Op == bytecode.OpReturnVal:
				emit(bytecode.Instr{Op: bytecode.OpStore, A: int64(retSlot)})
				endFixups = append(endFixups, emit(bytecode.Instr{Op: bytecode.OpGoto, A: -1}))
			case cp.Op == bytecode.OpReturn:
				endFixups = append(endFixups, emit(bytecode.Instr{Op: bytecode.OpGoto, A: -1}))
			default:
				emit(cp)
			}
		}
		_ = bodyStart
		spliceEnd := len(out.Instrs)
		for _, fx := range cfixups {
			out.Instrs[fx.at].A = int64(calleeIdx[fx.target])
		}
		for _, at := range endFixups {
			out.Instrs[at].A = int64(spliceEnd)
		}
		if retSlot >= 0 {
			emit(bytecode.Instr{Op: bytecode.OpLoad, A: int64(retSlot)})
		} else if spliceEnd == len(out.Instrs) {
			// Keep the splice-end target in range when the callee ends
			// the caller's instruction stream (a trailing void call).
			emit(bytecode.Instr{Op: bytecode.OpNop})
		}
	}
	newIdx[len(code.Instrs)] = len(out.Instrs)

	for _, fx := range fixups {
		out.Instrs[fx.at].A = int64(newIdx[fx.target])
	}

	if err := bytecode.Verify(u, out); err != nil {
		return nil, false, fmt.Errorf("opt: inlining %s produced invalid bytecode: %w", caller.QualifiedName(), err)
	}
	return out, true, nil
}
