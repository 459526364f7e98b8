package alloc

// Warm starts: when the fingerprint misses but the input overlaps the
// previous epoch (some apps' tables or phases changed, the rest did not),
// the subgradient iteration need not rediscover the price vector from zero.
// The Allocator retains the final λ of its last Lagrangian solve and, with
// warm starting enabled, seeds the next solve's λ₀ from it; the first
// relaxed minimisation under that λ then reproduces the previous epoch's
// per-app selections wherever the tables still agree, and repair/rescue/
// improve run from that incumbent. Combined with the fixpoint early exit in
// lagrangianSelect this turns Stats.LambdaIters into a real
// iterations-to-convergence measure — warm starts show up as smaller counts
// on perturbed inputs.
//
// Warm-started solves are NOT guaranteed bit-identical to cold solves (a
// different λ₀ can converge to a different, equally feasible selection), so
// warm starting is opt-in: it trades exact cold-solve equivalence for
// convergence speed. With the solution cache on as well, a hit returns the
// answer of the solve that filled the entry, which a warm re-solve of the
// same input from a later λ need not repeat. Every warm result still passes
// the full repair pipeline, the allocation invariants and the differential
// oracle (see warmstart_test.go).

// WithWarmStart enables seeding the subgradient iteration from the previous
// solve's final λ vector (default off). Only the Lagrangian method warm
// starts; the greedy ablation has no λ.
func WithWarmStart(on bool) Option {
	return optionFunc(func(a *Allocator) { a.warm = on })
}

// warmLambda returns the λ₀ seed for a solve over nk kinds: the previous
// solve's final λ when warm starting is enabled and a compatible previous
// solve exists, nil (= cold zeros) otherwise.
func (a *Allocator) warmLambda(nk int) []float64 {
	if !a.warm || !a.havePrev || len(a.prevLambda) != nk {
		return nil
	}
	return a.prevLambda
}

// rememberLambda retains a solve's final λ for the next warm start.
func (a *Allocator) rememberLambda(lambda []float64) {
	a.prevLambda = resize(a.prevLambda, len(lambda))
	copy(a.prevLambda, lambda)
	a.havePrev = true
}
