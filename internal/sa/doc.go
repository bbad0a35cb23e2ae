// Package sa is the simulated-annealing engine both exploration stages of
// the SoMa framework share (paper Sec. V-C).
//
// # Serial search
//
// Starting from an initial solution, each iteration applies a random
// operator, evaluates the candidate, always accepts improvements and accepts
// regressions with probability p = exp((c-c')/(c*T_n)), where the
// temperature follows the paper's schedule T_n = T0*(1-n/N)/(1+alpha*n/N).
//
// The engine is generic over the state type through the MoveState
// interface: a state applies one move in place, reports its cost, and then
// commits or rolls it back on the acceptance draw. Stage 1 anneals
// *core.Encoding (the Layer-Fusion-related Attributes), stage 2 anneals
// *core.Schedule (the DRAM-Load-and-Store-related Attributes) over an
// incremental evaluator; the Cocco baseline is a one-chain stage 1 with its
// own operators.
//
// # Portfolio search (RunMovesPortfolioCtx)
//
// RunMovesPortfolioCtx is the parallel extension of the paper's search: it
// runs several independently seeded chains (seed, seed+1, ...), each on its
// own MoveState built from the same initial solution - a classic portfolio
// of restarts - on a bounded worker pool, and selects the winner by (cost,
// chain index). Because every chain is deterministic given its seed and the
// selection rule is total, the result is a pure function of the
// configuration: the Workers knob changes wall-clock time only, never the
// returned schedule. This is what makes figure sweeps reproducible while
// still scaling across cores. The zero PortfolioConfig is one serial chain,
// run on the caller's goroutine: it is the package's serial entry point.
package sa
