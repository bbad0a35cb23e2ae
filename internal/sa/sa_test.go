package sa

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestTemperatureSchedule(t *testing.T) {
	if got := Temperature(1, 4, 0, 100); got != 1 {
		t.Fatalf("T(0) = %g, want T0", got)
	}
	if got := Temperature(1, 4, 100, 100); got != 0 {
		t.Fatalf("T(N) = %g, want 0", got)
	}
	// Monotone decreasing.
	prev := math.Inf(1)
	for n := 0; n <= 100; n += 10 {
		cur := Temperature(0.25, 4, n, 100)
		if cur > prev {
			t.Fatalf("temperature rose at n=%d: %g > %g", n, cur, prev)
		}
		prev = cur
	}
	// Paper's closed form at the midpoint: T0 * 0.5 / (1 + alpha*0.5).
	want := 0.25 * 0.5 / (1 + 4*0.5)
	if got := Temperature(0.25, 4, 50, 100); math.Abs(got-want) > 1e-12 {
		t.Fatalf("T(N/2) = %g, want %g", got, want)
	}
	if Temperature(1, 4, 5, 0) != 0 {
		t.Fatal("zero-length schedule must be cold")
	}
}

// funcMoves is a test-local MoveState over a value-like state: neighbor
// proposes a fresh candidate from the current state and cost evaluates it.
type funcMoves[S any] struct {
	cur, cand S
	cost      func(S) float64
	neighbor  func(S, *rand.Rand) (S, bool)
}

func (m *funcMoves[S]) InitCost() float64 { return m.cost(m.cur) }

func (m *funcMoves[S]) Propose(rng *rand.Rand) (float64, bool) {
	cand, ok := m.neighbor(m.cur, rng)
	if !ok {
		return 0, false
	}
	m.cand = cand
	return m.cost(cand), true
}

func (m *funcMoves[S]) Accept()     { m.cur = m.cand }
func (m *funcMoves[S]) Reject()     {}
func (m *funcMoves[S]) Snapshot() S { return m.cur }

// anneal runs one runMovesCtx chain over a funcMoves state.
func anneal[S any](ctx context.Context, cfg Config, init S, cost func(S) float64,
	neighbor func(S, *rand.Rand) (S, bool)) (S, float64, Stats) {
	return runMovesCtx[S](ctx, cfg, &funcMoves[S]{cur: init, cost: cost, neighbor: neighbor})
}

// annealPortfolio runs RunMovesPortfolioCtx with one funcMoves per chain,
// each starting from init.
func annealPortfolio[S any](ctx context.Context, cfg Config, pf PortfolioConfig, init S,
	cost func(S) float64, neighbor func(S, *rand.Rand) (S, bool)) (S, float64, PortfolioStats) {
	return RunMovesPortfolioCtx(ctx, cfg, pf, func(int) MoveState[S] {
		return &funcMoves[S]{cur: init, cost: cost, neighbor: neighbor}
	})
}

var bg = context.Background()

func TestRunFindsQuadraticMinimum(t *testing.T) {
	cost := func(x float64) float64 { return (x - 7) * (x - 7) }
	neighbor := func(x float64, rng *rand.Rand) (float64, bool) {
		return x + rng.NormFloat64(), true
	}
	best, bc, st := anneal(bg, Config{T0: 0.25, Alpha: 4, Iters: 5000, Seed: 1}, 100.0, cost, neighbor)
	if math.Abs(best-7) > 0.5 {
		t.Fatalf("best = %g, want ~7 (cost %g)", best, bc)
	}
	if st.Accepted == 0 || st.Improved == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cost := func(x int) float64 { return math.Abs(float64(x - 42)) }
	neighbor := func(x int, rng *rand.Rand) (int, bool) {
		return x + rng.Intn(7) - 3, true
	}
	a, ac, _ := anneal(bg, Config{T0: 0.25, Alpha: 4, Iters: 2000, Seed: 99}, 0, cost, neighbor)
	b, bc, _ := anneal(bg, Config{T0: 0.25, Alpha: 4, Iters: 2000, Seed: 99}, 0, cost, neighbor)
	if a != b || ac != bc {
		t.Fatalf("same seed diverged: %d/%g vs %d/%g", a, ac, b, bc)
	}
	c, _, _ := anneal(bg, Config{T0: 0.25, Alpha: 4, Iters: 2000, Seed: 100}, 0, cost, neighbor)
	_ = c // different seed may or may not differ; just must not crash
}

func TestRunEscapesInfeasibleStart(t *testing.T) {
	// Start in an infeasible region (cost +Inf); SA must accept the first
	// feasible candidate regardless of its cost.
	cost := func(x int) float64 {
		if x < 10 {
			return math.Inf(1)
		}
		return float64(x)
	}
	neighbor := func(x int, rng *rand.Rand) (int, bool) {
		return x + rng.Intn(5) - 1, true
	}
	best, bc, _ := anneal(bg, Config{T0: 0.25, Alpha: 4, Iters: 3000, Seed: 7}, 0, cost, neighbor)
	if math.IsInf(bc, 1) {
		t.Fatalf("never escaped infeasible region: best=%d", best)
	}
	if best < 10 {
		t.Fatalf("returned infeasible best %d", best)
	}
}

func TestRunNeverReturnsWorseThanInit(t *testing.T) {
	cost := func(x float64) float64 { return x * x }
	neighbor := func(x float64, rng *rand.Rand) (float64, bool) {
		return x + rng.Float64()*10, true // only worsening moves
	}
	_, bc, _ := anneal(bg, Config{T0: 0.25, Alpha: 4, Iters: 500, Seed: 3}, 2.0, cost, neighbor)
	if bc > 4.0 {
		t.Fatalf("best cost %g worse than init 4.0", bc)
	}
}

func TestRunSkipsRejectedNeighbors(t *testing.T) {
	calls := 0
	cost := func(x int) float64 { calls++; return float64(x) }
	neighbor := func(x int, rng *rand.Rand) (int, bool) { return x, false }
	_, _, st := anneal(bg, Config{T0: 0.25, Alpha: 4, Iters: 100, Seed: 1}, 5, cost, neighbor)
	if st.Accepted != 0 {
		t.Fatalf("accepted moves with no valid neighbors: %+v", st)
	}
	if calls != 1 { // only the init evaluation
		t.Fatalf("cost called %d times for rejected neighbors", calls)
	}
}

// TestRunCtxCancellation: a canceled context stops the annealer within
// cancelCheckEvery iterations, and the incumbent found so far is returned.
func TestRunCtxCancellation(t *testing.T) {
	cost := func(s int) float64 { return float64(s) }
	neighbor := func(s int, rng *rand.Rand) (int, bool) { return s - 1, true }

	// Pre-canceled: stops at the first check, before any move.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	best, _, st := anneal(ctx, Config{T0: 0.25, Alpha: 4, Iters: 1 << 20, Seed: 1}, 0, cost, neighbor)
	if st.Iterations != 0 {
		t.Fatalf("pre-canceled run iterated %d times", st.Iterations)
	}
	if best != 0 {
		t.Fatalf("pre-canceled run moved off the initial state: %d", best)
	}

	// Canceled mid-run: the neighbor cancels after a fixed number of
	// proposals, so the loop must stop within one check interval.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	cancelAt := func(s int, rng *rand.Rand) (int, bool) {
		calls++
		if calls == 10 {
			cancel()
		}
		return s - 1, true
	}
	_, _, st = anneal(ctx, Config{T0: 0.25, Alpha: 4, Iters: 1 << 20, Seed: 1}, 0, cost, cancelAt)
	if st.Iterations >= 10+2*cancelCheckEvery {
		t.Fatalf("cancellation took %d iterations to land", st.Iterations)
	}
	if st.Iterations < 10 {
		t.Fatalf("run stopped before cancel: %d iterations", st.Iterations)
	}

	// The portfolio shares the context across chains: every chain stops.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	_, _, pst := annealPortfolio(ctx, Config{T0: 0.25, Alpha: 4, Iters: 1 << 20, Seed: 1},
		PortfolioConfig{Chains: 4, Workers: 2}, 0, cost, neighbor)
	if pst.Total.Iterations != 0 {
		t.Fatalf("canceled portfolio iterated %d times", pst.Total.Iterations)
	}
}
