package check

import (
	"fmt"
	"math/rand"

	"github.com/harp-rm/harp/internal/alloc"
	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
)

// GenConfig bounds the random instance generator. The zero value selects the
// oracle-friendly defaults (DESIGN.md §6): small platforms and at
// most 4 applications × 8 candidate points, comfortably inside the exact
// solver's budget.
type GenConfig struct {
	// MaxKinds is the maximum number of core kinds (default 3).
	MaxKinds int
	// MaxCoresPerKind caps each kind's core count (default 4).
	MaxCoresPerKind int
	// MaxSMT caps hardware threads per core (default 2).
	MaxSMT int
	// MaxApps caps the number of competing applications (default 4).
	MaxApps int
	// MaxPoints caps the operating points per application (default 8).
	MaxPoints int
	// Degenerate mixes in hostile points — zero vectors, zero utility, zero
	// power, NaN-free but unusable — that the allocator must filter rather
	// than crash on (default off; the differential tests switch it on).
	Degenerate bool
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MaxKinds == 0 {
		c.MaxKinds = 3
	}
	if c.MaxCoresPerKind == 0 {
		c.MaxCoresPerKind = 4
	}
	if c.MaxSMT == 0 {
		c.MaxSMT = 2
	}
	if c.MaxApps == 0 {
		c.MaxApps = 4
	}
	if c.MaxPoints == 0 {
		c.MaxPoints = 8
	}
	return c
}

// GenPlatform derives a random valid platform from the rng: 1–MaxKinds core
// kinds with random counts, SMT and a plausible power model. Every platform
// it returns passes platform.Validate.
func GenPlatform(r *rand.Rand, cfg GenConfig) *platform.Platform {
	cfg = cfg.withDefaults()
	nKinds := 1 + r.Intn(cfg.MaxKinds)
	p := &platform.Platform{
		Name:            fmt.Sprintf("gen-%dk", nKinds),
		UncoreWatts:     r.Float64() * 3,
		MemBWGips:       20 + r.Float64()*200,
		EnergySensors:   "package",
		SimultaneousPMU: true,
	}
	for k := 0; k < nKinds; k++ {
		maxF := 1 + r.Float64()*4
		p.Kinds = append(p.Kinds, platform.CoreKind{
			Name:           fmt.Sprintf("K%d", k),
			Count:          1 + r.Intn(cfg.MaxCoresPerKind),
			SMT:            1 + r.Intn(cfg.MaxSMT),
			MaxFreqGHz:     maxF,
			MinFreqGHz:     0.2 + r.Float64()*0.5,
			IPC:            0.5 + r.Float64()*4,
			MemPenalty:     r.Float64(),
			SMTMaxGain:     r.Float64() * 0.6,
			SMTPowerFactor: r.Float64() * 0.6,
			ActiveWatts:    0.5 + r.Float64()*6,
			IdleWatts:      r.Float64() * 0.8,
			SleepWatts:     r.Float64() * 0.1,
		})
	}
	return p
}

// GenInputs derives a random application mix for the platform: each app gets
// a table of random operating points over the platform's vector space with
// independent utility/power draws. With cfg.Degenerate, hostile points that
// must be filtered (zero vectors, non-positive utility or power) are mixed
// in; every table keeps at least one usable point so the instance stays
// meaningfully comparable against the oracle.
func GenInputs(r *rand.Rand, p *platform.Platform, cfg GenConfig) []alloc.AppInput {
	cfg = cfg.withDefaults()
	vecs := platform.EnumerateVectors(p, 0)
	nApps := 1 + r.Intn(cfg.MaxApps)
	inputs := make([]alloc.AppInput, 0, nApps)
	for i := 0; i < nApps; i++ {
		tbl := &opoint.Table{App: fmt.Sprintf("app%d", i), Platform: p.Name}
		nPts := 1 + r.Intn(cfg.MaxPoints)
		for j := 0; j < nPts; j++ {
			op := opoint.OperatingPoint{
				Vector:   vecs[r.Intn(len(vecs))].Clone(),
				Utility:  0.1 + r.Float64()*20,
				Power:    0.05 + r.Float64()*8,
				Measured: true,
			}
			if cfg.Degenerate && r.Intn(10) == 0 {
				switch r.Intn(3) {
				case 0:
					op.Vector = platform.NewResourceVector(p)
				case 1:
					op.Utility = 0
				case 2:
					op.Power = 0
				}
			}
			tbl.Upsert(op)
		}
		if !hasUsablePoint(tbl) {
			tbl.Upsert(opoint.OperatingPoint{
				Vector:   vecs[r.Intn(len(vecs))].Clone(),
				Utility:  0.5 + r.Float64()*10,
				Power:    0.1 + r.Float64()*4,
				Measured: true,
			})
		}
		inputs = append(inputs, alloc.AppInput{ID: fmt.Sprintf("app%d", i), Table: tbl})
	}
	return inputs
}

// Gen derives a full random allocator instance — platform plus application
// mix — from one seed. Same seed, same instance.
func Gen(seed int64, cfg GenConfig) (*platform.Platform, []alloc.AppInput) {
	r := rand.New(rand.NewSource(seed))
	p := GenPlatform(r, cfg)
	return p, GenInputs(r, p, cfg)
}

func hasUsablePoint(tbl *opoint.Table) bool {
	for _, op := range tbl.Points {
		if !op.Vector.IsZero() && op.Utility > 0 && op.Power > 0 {
			return true
		}
	}
	return false
}
