package sa

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// rugged is a deliberately multimodal 1-D cost with a unique global minimum
// at x = 371, so independent restarts genuinely disagree.
func rugged(x int) float64 {
	fx := float64(x)
	return 5 + math.Abs(fx-371)/100 + 2*math.Sin(fx/7)*math.Sin(fx/13)
}

func ruggedNeighbor(x int, rng *rand.Rand) (int, bool) {
	step := rng.Intn(25) - 12
	if step == 0 {
		return x, false
	}
	return x + step, true
}

func portfolioCfg() Config { return Config{T0: 0.3, Alpha: 4, Iters: 400, Seed: 11} }

func TestPortfolioDeterministicAcrossWorkers(t *testing.T) {
	var states []int
	var costs []float64
	var chains []int
	for _, workers := range []int{1, 3, 8, 16} {
		pf := PortfolioConfig{Chains: 6, Workers: workers}
		best, c, st := annealPortfolio(bg, portfolioCfg(), pf, 0, rugged, ruggedNeighbor)
		states = append(states, best)
		costs = append(costs, c)
		chains = append(chains, st.BestChain)
		if st.Chains != 6 {
			t.Fatalf("chains = %d", st.Chains)
		}
	}
	for i := 1; i < len(states); i++ {
		if states[i] != states[0] || costs[i] != costs[0] || chains[i] != chains[0] {
			t.Fatalf("worker count changed the outcome: %v %v %v", states, costs, chains)
		}
	}
}

func TestPortfolioNeverWorseThanAnyChain(t *testing.T) {
	cfg := portfolioCfg()
	pfBest, pfCost, st := annealPortfolio(bg, cfg, PortfolioConfig{Chains: 8, Workers: 4},
		0, rugged, ruggedNeighbor)
	if rugged(pfBest) != pfCost {
		t.Fatalf("returned cost %g does not match returned state (%g)", pfCost, rugged(pfBest))
	}
	for c := 0; c < 8; c++ {
		chainCfg := cfg
		chainCfg.Seed = cfg.Seed + int64(c)
		_, cc, _ := anneal(bg, chainCfg, 0, rugged, ruggedNeighbor)
		if pfCost > cc {
			t.Fatalf("portfolio (%g) lost to its own chain %d (%g)", pfCost, c, cc)
		}
		if c == st.BestChain && cc != pfCost {
			t.Fatalf("winner chain %d re-run diverged: %g vs %g", c, cc, pfCost)
		}
	}
}

func TestPortfolioAggregatesStats(t *testing.T) {
	_, _, st := annealPortfolio(bg, portfolioCfg(), PortfolioConfig{Chains: 5, Workers: 2},
		0, rugged, ruggedNeighbor)
	if len(st.PerChain) != 5 {
		t.Fatalf("per-chain stats = %d", len(st.PerChain))
	}
	var iters, accepted, improved int
	for _, s := range st.PerChain {
		iters += s.Iterations
		accepted += s.Accepted
		improved += s.Improved
	}
	if st.Total.Iterations != iters || st.Total.Accepted != accepted || st.Total.Improved != improved {
		t.Fatalf("totals do not sum per-chain stats: %+v", st)
	}
	if st.Total.BestIter != st.PerChain[st.BestChain].BestIter {
		t.Fatal("Total.BestIter must come from the winning chain")
	}
}

func TestPortfolioZeroValueIsSerialRun(t *testing.T) {
	cfg := portfolioCfg()
	serialBest, serialCost, serialStats := anneal(bg, cfg, 0, rugged, ruggedNeighbor)
	pfBest, pfCost, st := annealPortfolio(bg, cfg, PortfolioConfig{}, 0, rugged, ruggedNeighbor)
	if pfBest != serialBest || pfCost != serialCost || st.Total != serialStats {
		t.Fatalf("zero portfolio must equal one chain: %v/%g vs %v/%g", pfBest, pfCost, serialBest, serialCost)
	}
	if st.Chains != 1 || st.Workers != 1 || st.BestChain != 0 {
		t.Fatalf("normalized dimensions wrong: %+v", st)
	}
}

// panicky is a MoveState whose chain panics on its third proposal.
type panicky struct{ moves int }

func (p *panicky) InitCost() float64 { return 1 }
func (p *panicky) Propose(*rand.Rand) (float64, bool) {
	if p.moves++; p.moves == 3 {
		panic("bad move")
	}
	return 1, true
}
func (p *panicky) Accept()       {}
func (p *panicky) Reject()       {}
func (p *panicky) Snapshot() int { return 0 }

// TestPortfolioChainPanicReachesCaller: a panic in a chain goroutine is
// raised again on the caller's goroutine, with the chain and its stack,
// instead of killing the process.
func TestPortfolioChainPanicReachesCaller(t *testing.T) {
	defer func() {
		p, ok := recover().(*ChainPanic)
		if !ok {
			t.Fatalf("recovered %v, want a *ChainPanic", p)
		}
		if p.Chain != 1 || p.Value != "bad move" || !strings.Contains(string(p.Stack), "(*panicky).Propose") {
			t.Fatalf("chain %d, value %v, stack:\n%s", p.Chain, p.Value, p.Stack)
		}
		if want := "sa: portfolio chain 1: bad move"; p.Error() != want {
			t.Fatalf("Error() = %q, want %q", p.Error(), want)
		}
	}()
	RunMovesPortfolioCtx(bg, portfolioCfg(), PortfolioConfig{Chains: 2, Workers: 2},
		func(c int) MoveState[int] {
			if c == 1 {
				return &panicky{}
			}
			return &funcMoves[int]{cur: 0, cost: rugged, neighbor: ruggedNeighbor}
		})
	t.Fatal("the chain's panic did not reach the caller")
}
