package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/harp-rm/harp/internal/platform"
)

func mustVector(t *testing.T, p *platform.Platform, perKind ...[]int) platform.ResourceVector {
	t.Helper()
	rv, err := platform.VectorOf(p, perKind...)
	if err != nil {
		t.Fatalf("VectorOf: %v", err)
	}
	return rv
}

func mustProfile(t *testing.T, suite []*Profile, name string) *Profile {
	t.Helper()
	p, err := ByName(suite, name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAllProfilesValidate(t *testing.T) {
	for _, suite := range [][]*Profile{IntelApps(), OdroidApps()} {
		for _, p := range suite {
			if err := p.Validate(); err != nil {
				t.Errorf("%s: %v", p.Name, err)
			}
		}
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base := func() *Profile {
		return &Profile{Name: "x", Adaptivity: Scalable, WorkGI: 1, Wait: Block}
	}
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"empty name", func(p *Profile) { p.Name = "" }},
		{"bad adaptivity", func(p *Profile) { p.Adaptivity = 0 }},
		{"zero work", func(p *Profile) { p.WorkGI = 0 }},
		{"serial one", func(p *Profile) { p.SerialFrac = 1 }},
		{"mem bound 2", func(p *Profile) { p.MemBound = 2 }},
		{"smt friendly neg", func(p *Profile) { p.SMTFriendly = -0.1 }},
		{"bad wait", func(p *Profile) { p.Wait = 0 }},
		{"neg queue", func(p *Profile) { p.QueueCap = -1 }},
		{"neg sync", func(p *Profile) { p.SyncOverhead = -1 }},
		{"neg threads", func(p *Profile) { p.DefaultThreads = -1 }},
		{"own utility no scale", func(p *Profile) { p.OwnUtility = true }},
		{"neg startup", func(p *Profile) { p.StartupGI = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base()
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatal("Validate accepted bad profile")
			}
		})
	}
}

func TestSuiteContents(t *testing.T) {
	if got := len(IntelApps()); got != 17 {
		t.Errorf("Intel suite size = %d, want 17 (9 NAS + 6 TBB + 2 TF)", got)
	}
	if got := len(OdroidApps()); got != 13 {
		t.Errorf("Odroid suite size = %d, want 13 (9 NAS + 4 KPN)", got)
	}
	if _, err := ByName(IntelApps(), "no-such-app"); err == nil {
		t.Error("ByName(unknown) succeeded")
	}
}

func TestDefaultThreads(t *testing.T) {
	intel := platform.RaptorLake()
	ep := mustProfile(t, IntelApps(), "ep.C")
	if got := ep.Threads(intel); got != 32 {
		t.Errorf("ep default threads = %d, want 32 (one per hw thread)", got)
	}
	static := mustProfile(t, OdroidApps(), "mandelbrot-static")
	if got := static.Threads(platform.OdroidXU3()); got != 5 {
		t.Errorf("static KPN threads = %d, want 5 (fixed topology)", got)
	}
}

func TestRespondEmptyPlacement(t *testing.T) {
	ep := mustProfile(t, IntelApps(), "ep.C")
	resp := ep.Respond(platform.RaptorLake(), nil, Conditions{MemBWGips: 60}, nil)
	if resp.UsefulRate != 0 || resp.ExecRate != 0 {
		t.Fatalf("empty placement response = %+v, want zero", resp)
	}
}

func TestSlotsForVectorShape(t *testing.T) {
	p := platform.RaptorLake()
	rv := mustVector(t, p, []int{1, 2}, []int{4}) // paper example: 9 hw threads
	slots := SlotsForVector(p, rv)
	if len(slots) != 9 {
		t.Fatalf("slots = %d, want 9", len(slots))
	}
	var smtPairs, singles, eCores int
	for _, s := range slots {
		if s.Share != 1 || s.FreqScale != 1 {
			t.Fatalf("slot %+v not exclusive full-speed", s)
		}
		switch {
		case s.Kind == 0 && s.BusyOnCore == 2:
			smtPairs++
		case s.Kind == 0 && s.BusyOnCore == 1:
			singles++
		case s.Kind == 1:
			eCores++
		}
	}
	if smtPairs != 4 || singles != 1 || eCores != 4 {
		t.Fatalf("slot mix = (%d smt, %d single, %d E), want (4, 1, 4)", smtPairs, singles, eCores)
	}
}

// usefulRate is the useful rate EvaluateVector bases its times on: the
// profile's response on the vector's exclusive slots.
func usefulRate(p *platform.Platform, prof *Profile, rv platform.ResourceVector) float64 {
	return prof.Respond(p, SlotsForVector(p, rv), Conditions{MemBWGips: p.MemBWGips}, nil).UsefulRate
}

// ep must scale with more resources and benefit from full SMT pairs (Fig. 1a).
func TestEPScalesAndLikesSMT(t *testing.T) {
	p := platform.RaptorLake()
	ep := mustProfile(t, IntelApps(), "ep.C")

	full := EvaluateVector(p, ep, p.Capacity())
	eOnly := EvaluateVector(p, ep, mustVector(t, p, []int{0, 0}, []int{16}))
	if full.TimeSec >= eOnly.TimeSec {
		t.Errorf("ep full machine (%.2fs) not faster than E-only (%.2fs)", full.TimeSec, eOnly.TimeSec)
	}

	smtPairs := usefulRate(p, ep, mustVector(t, p, []int{0, 4}, []int{0}))  // 4 cores, 8 threads
	smtSingle := usefulRate(p, ep, mustVector(t, p, []int{4, 0}, []int{0})) // 4 cores, 4 threads
	if smtPairs <= smtSingle {
		t.Errorf("ep with SMT pairs (%.1f GI/s) not above single-thread cores (%.1f GI/s)",
			smtPairs, smtSingle)
	}
}

// mg must be bandwidth-bound: the full machine burns more energy than a
// modest E-core allocation without a matching speedup (Fig. 1b).
func TestMGPrefersECores(t *testing.T) {
	p := platform.RaptorLake()
	mg := mustProfile(t, IntelApps(), "mg.C")

	full := EvaluateVector(p, mg, p.Capacity())
	e8 := EvaluateVector(p, mg, mustVector(t, p, []int{0, 0}, []int{8}))

	if full.EnergyJ <= e8.EnergyJ {
		t.Errorf("mg full machine energy %.0f J not above 8×E %.0f J", full.EnergyJ, e8.EnergyJ)
	}
	// The speedup from tripling the resources must be marginal (< 25 %).
	if e8.TimeSec/full.TimeSec > 1.25 {
		t.Errorf("mg full machine %.2fs vs 8×E %.2fs: speedup too large for a BW-bound app",
			full.TimeSec, e8.TimeSec)
	}
	// Energy-wise, 8 E-cores must beat 8 P-cores for memory-bound work.
	p8 := EvaluateVector(p, mg, mustVector(t, p, []int{0, 8}, []int{0}))
	if e8.EnergyJ >= p8.EnergyJ {
		t.Errorf("mg 8×E energy %.0f J not below 8×P %.0f J", e8.EnergyJ, p8.EnergyJ)
	}
}

// binpack's shared queue must collapse at the 32-thread default: the paper
// reports a 6.91× speedup when HARP scales it down (§6.3.1).
func TestBinpackQueueCollapse(t *testing.T) {
	p := platform.RaptorLake()
	binpack := mustProfile(t, IntelApps(), "binpack")

	wide := EvaluateVector(p, binpack, p.Capacity()) // 32 threads
	narrow := EvaluateVector(p, binpack, mustVector(t, p, []int{4, 0}, []int{0}))

	speedup := wide.TimeSec / narrow.TimeSec
	if speedup < 4 || speedup > 12 {
		t.Errorf("binpack 32→4 thread speedup = %.2f×, want roughly 7× (4–12)", speedup)
	}
}

// Barrier-coupled apps on mixed cores are paced by the efficiency cores;
// work-stealing apps are not.
func TestBarrierPacingOnMixedCores(t *testing.T) {
	p := platform.RaptorLake()
	mixed := mustVector(t, p, []int{8, 0}, []int{8}) // 8 P threads + 8 E threads

	barrier := &Profile{
		Name: "b", Adaptivity: Scalable, WorkGI: 100, Wait: Block, Barrier: true,
	}
	stealing := &Profile{
		Name: "s", Adaptivity: Scalable, WorkGI: 100, Wait: Block, DynamicLoad: true,
	}
	rb := usefulRate(p, barrier, mixed)
	rs := usefulRate(p, stealing, mixed)
	if rb >= rs {
		t.Errorf("barrier app rate %.1f not below work-stealing rate %.1f on mixed cores",
			rb, rs)
	}
	// The barrier app must be paced at ≈ 16 × E-rate.
	slots := SlotsForVector(p, mixed)
	var eRate float64
	for _, s := range slots {
		if s.Kind == 1 {
			eRate = p.Kinds[1].ComputeRate()
			_ = s
			break
		}
	}
	want := 16 * eRate
	if math.Abs(rb-want)/want > 0.05 {
		t.Errorf("barrier pacing = %.1f GI/s, want ≈ %.1f (16 × E-rate)", rb, want)
	}
}

// Spin waiting must inflate IPS and busy time above the blocking equivalent.
func TestSpinInflatesIPSAndPower(t *testing.T) {
	p := platform.RaptorLake()
	mixed := mustVector(t, p, []int{8, 0}, []int{8})

	mk := func(wait WaitPolicy) *Profile {
		return &Profile{
			Name: "w", Adaptivity: Scalable, WorkGI: 100, Wait: wait, Barrier: true,
		}
	}
	spin := EvaluateVector(p, mk(Spin), mixed)
	block := EvaluateVector(p, mk(Block), mixed)

	if su, bu := usefulRate(p, mk(Spin), mixed), usefulRate(p, mk(Block), mixed); su != bu {
		t.Errorf("wait policy changed useful rate: %.2f vs %.2f", su, bu)
	}
	if spin.IPS <= block.IPS {
		t.Errorf("spin IPS %.1f not above block IPS %.1f", spin.IPS, block.IPS)
	}
	if spin.PowerWatts <= block.PowerWatts {
		t.Errorf("spin power %.1f W not above block power %.1f W", spin.PowerWatts, block.PowerWatts)
	}
}

// Oversubscribed placements (time-sharing) must be slower than matched ones,
// and dramatically so for barrier apps (lock-holder preemption, §2.2).
func TestOversubscriptionPenalty(t *testing.T) {
	p := platform.RaptorLake()
	// 4 exclusive P hardware threads.
	exclusive := make([]Slot, 4)
	for i := range exclusive {
		exclusive[i] = Slot{Kind: 0, BusyOnCore: 1, Share: 1, FreqScale: 1}
	}
	// 16 threads time-sharing the same 4 hardware threads.
	shared := make([]Slot, 16)
	for i := range shared {
		shared[i] = Slot{Kind: 0, BusyOnCore: 1, Share: 0.25, FreqScale: 1}
	}
	cond := Conditions{MemBWGips: p.MemBWGips}

	barrier := &Profile{Name: "b", Adaptivity: Static, WorkGI: 1, Wait: Block, Barrier: true}
	loose := &Profile{Name: "l", Adaptivity: Static, WorkGI: 1, Wait: Block, DynamicLoad: true}

	exB := barrier.Respond(p, exclusive, cond, nil).UsefulRate
	shB := barrier.Respond(p, shared, cond, nil).UsefulRate
	exL := loose.Respond(p, exclusive, cond, nil).UsefulRate
	shL := loose.Respond(p, shared, cond, nil).UsefulRate

	if shB >= exB || shL >= exL {
		t.Fatalf("time-sharing not penalised: barrier %.2f→%.2f, loose %.2f→%.2f", exB, shB, exL, shL)
	}
	lossB := shB / exB
	lossL := shL / exL
	if lossB >= lossL {
		t.Errorf("barrier app retained %.0f%% under oversubscription, loose app %.0f%%; barrier should suffer more",
			100*lossB, 100*lossL)
	}
}

// The memory bandwidth cap must bound useful progress.
func TestMemoryBandwidthCap(t *testing.T) {
	p := platform.RaptorLake()
	mg := mustProfile(t, IntelApps(), "mg.C")
	resp := mg.Respond(p, SlotsForVector(p, p.Capacity()), Conditions{MemBWGips: p.MemBWGips}, nil)
	cap := p.MemBWGips / mg.MemBound
	if resp.UsefulRate > cap+1e-9 {
		t.Errorf("useful rate %.1f exceeds BW cap %.1f", resp.UsefulRate, cap)
	}
	// Halving the available bandwidth must reduce the rate.
	half := mg.Respond(p, SlotsForVector(p, p.Capacity()), Conditions{MemBWGips: p.MemBWGips / 2}, nil)
	if half.UsefulRate >= resp.UsefulRate {
		t.Errorf("halving bandwidth did not slow mg: %.1f vs %.1f", half.UsefulRate, resp.UsefulRate)
	}
}

// Busy fractions must stay within [0, share].
func TestBusyFractionsBounded(t *testing.T) {
	p := platform.RaptorLake()
	for _, prof := range IntelApps() {
		slots := SlotsForVector(p, p.Capacity())
		resp := prof.Respond(p, slots, Conditions{MemBWGips: p.MemBWGips}, nil)
		if len(resp.Busy) != len(slots) {
			t.Fatalf("%s: busy len %d, want %d", prof.Name, len(resp.Busy), len(slots))
		}
		for i, b := range resp.Busy {
			if b < 0 || b > slots[i].Share+1e-9 {
				t.Errorf("%s: busy[%d] = %g outside [0, %g]", prof.Name, i, b, slots[i].Share)
			}
		}
		if resp.ExecRate+1e-9 < resp.UsefulRate {
			t.Errorf("%s: exec rate %.2f below useful rate %.2f", prof.Name, resp.ExecRate, resp.UsefulRate)
		}
	}
}

// ep.C's calibration anchor: the paper reports ≈2.43 s under CFS (§6.5.1),
// which our full-machine projection should approximate.
func TestEPRuntimeCalibration(t *testing.T) {
	p := platform.RaptorLake()
	ep := mustProfile(t, IntelApps(), "ep.C")
	eval := EvaluateVector(p, ep, p.Capacity())
	if eval.TimeSec < 1.5 || eval.TimeSec > 4.0 {
		t.Errorf("ep.C full-machine time = %.2fs, want ≈2.4s (1.5–4.0)", eval.TimeSec)
	}
}

// Own-utility apps must report utility in their own units, others IPS.
func TestUtilityMetricSelection(t *testing.T) {
	p := platform.RaptorLake()
	vgg := mustProfile(t, IntelApps(), "vgg")
	ep := mustProfile(t, IntelApps(), "ep.C")
	rv := p.Capacity()

	ev := EvaluateVector(p, vgg, rv)
	if useful := usefulRate(p, vgg, rv); math.Abs(ev.Utility-useful*vgg.UtilityScale) > 1e-9 {
		t.Errorf("vgg utility = %g, want useful·scale = %g", ev.Utility, useful*vgg.UtilityScale)
	}
	ee := EvaluateVector(p, ep, rv)
	if ee.Utility != ee.IPS {
		t.Errorf("ep utility = %g, want IPS %g", ee.Utility, ee.IPS)
	}
}

// Zero-resource evaluation must yield an infinite projected time, not NaN.
func TestEvaluateZeroVector(t *testing.T) {
	p := platform.RaptorLake()
	ep := mustProfile(t, IntelApps(), "ep.C")
	eval := EvaluateVector(p, ep, platform.NewResourceVector(p))
	if !math.IsInf(eval.TimeSec, 1) || !math.IsInf(eval.EnergyJ, 1) {
		t.Errorf("zero vector eval = %+v, want +Inf time/energy", eval)
	}
	if math.IsNaN(eval.Utility) {
		t.Error("zero vector utility is NaN")
	}
}

// Odroid: LITTLE cores must be the efficient choice for memory-bound apps.
func TestOdroidLittlePreference(t *testing.T) {
	p := platform.OdroidXU3()
	mg := mustProfile(t, OdroidApps(), "mg.A")
	big := EvaluateVector(p, mg, mustVector(t, p, []int{4}, []int{0}))
	little := EvaluateVector(p, mg, mustVector(t, p, []int{0}, []int{4}))
	if little.EnergyJ >= big.EnergyJ {
		t.Errorf("mg.A on LITTLE energy %.1f J not below big %.1f J", little.EnergyJ, big.EnergyJ)
	}
}

func TestAdaptivityString(t *testing.T) {
	tests := []struct {
		give Adaptivity
		want string
	}{
		{Static, "static"},
		{Scalable, "scalable"},
		{Custom, "custom"},
		{Adaptivity(9), "adaptivity(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

// Property: for random profiles and placements, responses respect the model
// invariants — busy fractions within [0, share], non-negative rates, IPS at
// least the useful rate, and memory traffic consistent with the rates.
func TestRespondInvariantsProperty(t *testing.T) {
	plat := platform.RaptorLake()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prof := &Profile{
			Name:         "q",
			Adaptivity:   Scalable,
			WorkGI:       1 + r.Float64()*1000,
			SerialFrac:   r.Float64() * 0.5,
			MemBound:     r.Float64(),
			SMTFriendly:  r.Float64(),
			Barrier:      r.Intn(2) == 0,
			DynamicLoad:  r.Intn(2) == 0,
			Wait:         WaitPolicy(1 + r.Intn(2)),
			SyncOverhead: r.Float64() * 0.01,
		}
		if err := prof.Validate(); err != nil {
			return false
		}
		n := 1 + r.Intn(40)
		slots := make([]Slot, n)
		for i := range slots {
			kind := platform.KindID(r.Intn(len(plat.Kinds)))
			busy := 1
			if plat.Kinds[kind].SMT > 1 && r.Intn(2) == 0 {
				busy = 2
			}
			slots[i] = Slot{
				Kind:       kind,
				BusyOnCore: busy,
				Share:      0.1 + 0.9*r.Float64(),
				FreqScale:  0.9 + 0.1*r.Float64(),
			}
		}
		resp := prof.Respond(plat, slots, Conditions{MemBWGips: plat.MemBWGips}, nil)
		if resp.UsefulRate < 0 || resp.ExecRate+1e-9 < resp.UsefulRate {
			return false
		}
		if resp.MemTraffic < 0 || resp.MemTraffic > resp.ExecRate*prof.MemBound+1e-9 {
			return false
		}
		if len(resp.Busy) != n {
			return false
		}
		for i, b := range resp.Busy {
			if b < -1e-9 || b > slots[i].Share+1e-9 {
				return false
			}
		}
		// Power must be non-negative and bounded by the package power with
		// every hardware thread fully busy.
		ceiling := plat.UncoreWatts
		for _, k := range plat.Kinds {
			ceiling += float64(k.Count) * (k.IdleWatts + float64(k.SMT)*k.ActiveWatts)
		}
		rv := plat.Capacity()
		if p := AllocPower(plat, rv, slots, resp.Busy); p < 0 || p > ceiling {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
