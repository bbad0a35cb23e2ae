// Package exp implements the paper's experiments: every figure of the
// evaluation (Sec. VI) and discussion (Sec. VII) maps to one function here,
// shared between the somabench command and the root benchmark suite. The
// top-level README's paper-artifact map lists which command regenerates
// which figure.
//
// The package contains no search plumbing of its own and starts no
// goroutines: every multi-point experiment is a thin adapter over the dse
// sweep runner (internal/dse), which supplies the worker pool, shared
// evaluation cache, panic containment and mid-grid cancellation. Fig. 6 and
// Fig. 8 run each case on the cocco and soma backends as one 2-backend
// sweep (Pairs); the Fig. 7 bandwidth x buffer heatmap, ObjectiveSweep and
// SeedSweep sweep their own axes. What remains here is figure-specific
// shaping: pairing backend rows into bar groups (BarGroup), geometric-mean
// summaries (Summarize), the Fig. 3 scatter construction, and the Fig. 7
// insight statistics (AnalyzeDSE).
//
// Registry exposes the shared model/platform/scenario/backend catalog behind
// `soma -list` and the somad registry endpoints.
package exp
