package alloc

import "github.com/harp-rm/harp/internal/opoint"

// Fingerprint is a 128-bit content hash of one complete solve input: the
// platform's capacity layout, the solver configuration and — per application,
// in order — the ID and the full operating-point table contents. Two inputs with equal fingerprints produce bit-identical
// allocations (the solver is deterministic in its inputs), which is what
// makes memoising whole solutions sound. 128 bits keep the accidental
// collision probability negligible at cache-realistic populations.
//
// The table contents enter as each table's own content hash
// (opoint.Facts.Hi/Lo), which the table computes once per content with the
// same opoint.Hasher that mixes the input words here; nothing in this
// package keys a memo on a table's identity.
type Fingerprint struct {
	Hi, Lo uint64
}

// fingerprintBase hashes the per-Allocator constants — platform capacity
// layout, solver method and iteration budget — once at construction. Core
// capacities live here, so a cache entry solved for one platform can never
// be served for another.
func (a *Allocator) fingerprintBase() Fingerprint {
	h := opoint.NewHasher()
	h.Str(a.plat.Name)
	h.U64(uint64(len(a.plat.Kinds)))
	for _, k := range a.plat.Kinds {
		h.Str(k.Name)
		h.U64(uint64(k.Count))
		h.U64(uint64(k.SMT))
	}
	h.U64(uint64(a.method))
	h.U64(lagrangianIters)
	return Fingerprint(h)
}

// fingerprintInputs hashes one solve input on top of the base Fingerprint.
// ok is false when any application is missing its table — such inputs error
// in buildState and are never cached. The hot path allocates nothing: the
// hasher lives on the stack and each table's hash is a field of its Facts.
func (a *Allocator) fingerprintInputs(apps []AppInput) (fp Fingerprint, ok bool) {
	h := opoint.Hasher(a.fpBase)
	h.U64(uint64(len(apps)))
	for i := range apps {
		app := &apps[i]
		if app.Table == nil {
			return Fingerprint{}, false
		}
		f := app.Table.Facts()
		h.Str(app.ID)
		h.U64(f.Hi)
		h.U64(f.Lo)
	}
	return Fingerprint(h), true
}
