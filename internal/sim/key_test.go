package sim

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/hw"
)

// keyOpt is the evaluator options the key tests run under: a scope and a
// budget, so both ends of the key are covered.
func keyOpt(s *core.Schedule, cs *coresched.Scheduler) Options {
	return Options{TileCosts: PrecomputeTileCosts(s, cs), CacheScope: "scope\x00", BufferBudget: 3 << 20}
}

// checkKey fails unless inc's live key equals the cache key derived from
// scratch for its schedule.
func checkKey(t *testing.T, inc *Incremental, opt Options, step int, what string) {
	t.Helper()
	want := Key(opt.CacheScope+inc.Schedule().CanonicalKey(), opt.BufferBudget)
	if got := string(inc.Key()); got != want {
		t.Fatalf("step %d, after the %s: key\n%x\nwant\n%x", step, what, got, want)
	}
}

// TestIncrementalKey: Key equals the from-scratch cache key after every
// proposal, accept and reject of a random walk over the prefill cut at 4
// tiles per layer. Its 176 tiles and 472 tensors put one- and two-byte
// varints side by side in both key sections, and half the jitters set a
// Living Duration to 127 or 128, so its encoding changes length and the
// key's tail shifts. The first key is built while a move is pending.
func TestIncrementalKey(t *testing.T) {
	s := prefillCut(t, 4)
	if s.NumTiles() <= 128 || len(s.Tensors) <= 128 {
		t.Fatalf("%d tiles, %d tensors: every varint fits one byte", s.NumTiles(), len(s.Tensors))
	}
	cs := coresched.New(hw.Edge())
	opt := keyOpt(s, cs)
	inc, err := NewIncremental(s, cs, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	crossings := 0
	for step := 1; step <= 800; step++ {
		var ok bool
		if rng.Intn(3) == 0 {
			ok = inc.MoveTensor(rng.Intn(len(s.Order)), rng.Intn(len(s.Order)))
		} else {
			id := rng.Intn(len(s.Tensors))
			tn := &s.Tensors[id]
			old := tn.Living()
			v := old + rng.Intn(17) - 8
			if rng.Intn(2) == 0 {
				v = 127 + rng.Intn(2)
			}
			ok = inc.SetLiving(id, v)
			if ok && (old < 128) != (tn.Living() < 128) {
				crossings++
			}
		}
		if !ok {
			continue
		}
		checkKey(t, inc, opt, step, "proposal")
		if rng.Intn(2) == 0 {
			inc.EvaluateProposal()
		}
		if rng.Intn(2) == 0 {
			inc.Accept()
			checkKey(t, inc, opt, step, "accept")
		} else {
			inc.Reject()
			checkKey(t, inc, opt, step, "reject")
		}
	}
	if crossings < 50 {
		t.Fatalf("only %d jitters crossed 127 <-> 128", crossings)
	}
}

// FuzzIncrementalKey decodes a sequence of DLSA operations over the prefill
// cut at 4 tiles per layer and checks after each that Key equals the
// from-scratch cache key. Every evaluated proposal, and the accepted state
// after every accept, must also equal the reference merge, errors
// included: the merge resumes from checkpoints the operations pick. The
// first byte k delays the first Key call until after operation k%8, so the
// key may be built mid-proposal. Every following 5-byte group is one
// operation: its first byte picks it, the next two 16-bit values a and b
// are its arguments.
//
//   - 0: move the tensor at order position a to position b;
//   - 1: set tensor a's Living Duration to b modulo the tile count + 1
//     (clamped like every jitter);
//   - 2: accept the pending move, evaluating it first if bit 2 is set;
//   - 3: reject the pending move.
//
// A move or jitter while a move is pending first accepts it (bit 2 set) or
// rejects it; an accept or reject without one does nothing.
func FuzzIncrementalKey(f *testing.F) {
	base := prefillCut(f, 4)
	cs := coresched.New(hw.Edge())
	opt := keyOpt(base, cs)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := base.Clone()
		inc, err := NewIncremental(s, cs, opt)
		if err != nil {
			t.Fatal(err)
		}
		check := func(op int, what string, m *Metrics, err error) {
			t.Helper()
			rm, rerr := referenceEvaluate(s, cs, opt.BufferBudget)
			if d := sameResult(m, err, rm, rerr); d != "" {
				t.Fatalf("operation %d, %s: %s", op, what, d)
			}
		}
		accept := func(op int) {
			t.Helper()
			inc.Accept()
			m, err := inc.Metrics()
			check(op, "accepted state", m, err)
		}
		evaluate := func(op int) {
			t.Helper()
			m, err := inc.EvaluateProposal()
			check(op, "proposal", m, err)
		}
		build := 0
		if len(data) > 0 {
			build, data = int(data[0]%8), data[1:]
		}
		m, n := len(s.Tensors), s.NumTiles()
		pending := false
		const maxOps = 256
		for op := 0; len(data) >= 5 && op < maxOps; op++ {
			code := data[0]
			a := int(binary.BigEndian.Uint16(data[1:]))
			b := int(binary.BigEndian.Uint16(data[3:]))
			data = data[5:]
			if pending && code%4 < 2 {
				if code&4 != 0 {
					accept(op)
				} else {
					inc.Reject()
				}
				pending = false
			}
			switch code % 4 {
			case 0:
				pending = inc.MoveTensor(a%m, b%m)
			case 1:
				pending = inc.SetLiving(a%m, b%(n+1))
			case 2:
				if pending {
					if code&4 != 0 {
						evaluate(op)
					}
					accept(op)
				}
				pending = false
			case 3:
				if pending {
					inc.Reject()
				}
				pending = false
			}
			if op >= build {
				checkKey(t, inc, opt, op, "operation")
			}
		}
	})
}
