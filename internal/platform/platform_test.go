package platform

import (
	"strings"
	"testing"
)

func TestBuiltinPlatformsValidate(t *testing.T) {
	for _, name := range []string{"intel", "odroid"} {
		t.Run(name, func(t *testing.T) {
			p := Builtin(name)
			if p == nil {
				t.Fatalf("Builtin(%q) = nil", name)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
	if p := Builtin("no-such-machine"); p != nil {
		t.Fatalf("Builtin(unknown) = %v, want nil", p)
	}
}

func TestRaptorLakeTopology(t *testing.T) {
	p := RaptorLake()
	if got := p.NumCores(); got != 24 {
		t.Errorf("NumCores = %d, want 24", got)
	}
	if got := p.NumHWThreads(); got != 32 {
		t.Errorf("NumHWThreads = %d, want 32", got)
	}
	// P-cores must be the fast kind (kind 0 by convention).
	if p.Kinds[0].ComputeRate() <= p.Kinds[1].ComputeRate() {
		t.Errorf("P compute rate %g not above E %g",
			p.Kinds[0].ComputeRate(), p.Kinds[1].ComputeRate())
	}
	// E-cores must be more energy-efficient per instruction.
	effP := p.Kinds[0].ActiveWatts / p.Kinds[0].ComputeRate()
	effE := p.Kinds[1].ActiveWatts / p.Kinds[1].ComputeRate()
	if effE >= effP {
		t.Errorf("E-core J/Ginstr %g not below P-core %g", effE, effP)
	}
}

func TestOdroidTopology(t *testing.T) {
	p := OdroidXU3()
	if got := p.NumCores(); got != 8 {
		t.Errorf("NumCores = %d, want 8", got)
	}
	if got := p.NumHWThreads(); got != 8 {
		t.Errorf("NumHWThreads = %d, want 8", got)
	}
	if p.SimultaneousPMU {
		t.Error("Odroid must not support simultaneous PMU access (§6.4)")
	}
	if p.EnergySensors != "island" {
		t.Errorf("EnergySensors = %q, want island", p.EnergySensors)
	}
}

func TestKindOf(t *testing.T) {
	p := RaptorLake()
	tests := []struct {
		core    int
		want    KindID
		wantErr bool
	}{
		{core: 0, want: 0},
		{core: 7, want: 0},
		{core: 8, want: 1},
		{core: 23, want: 1},
		{core: 24, wantErr: true},
		{core: -1, wantErr: true},
	}
	for _, tt := range tests {
		got, err := p.KindOf(tt.core)
		if tt.wantErr {
			if err == nil {
				t.Errorf("KindOf(%d): expected error", tt.core)
			}
			continue
		}
		if err != nil {
			t.Errorf("KindOf(%d): %v", tt.core, err)
			continue
		}
		if got != tt.want {
			t.Errorf("KindOf(%d) = %d, want %d", tt.core, got, tt.want)
		}
	}
}

func TestCoreRange(t *testing.T) {
	p := RaptorLake()
	if lo, hi := p.CoreRange(0); lo != 0 || hi != 8 {
		t.Errorf("CoreRange(P) = [%d,%d), want [0,8)", lo, hi)
	}
	if lo, hi := p.CoreRange(1); lo != 8 || hi != 24 {
		t.Errorf("CoreRange(E) = [%d,%d), want [8,24)", lo, hi)
	}
}

func TestCapacity(t *testing.T) {
	p := RaptorLake()
	cap := p.Capacity()
	if got := cap.Threads(); got != 32 {
		t.Errorf("Capacity threads = %d, want 32", got)
	}
	if got := cap.TotalCores(); got != 24 {
		t.Errorf("Capacity cores = %d, want 24", got)
	}
}

func TestValidateRejectsBadPlatforms(t *testing.T) {
	base := func() *Platform { return RaptorLake() }
	tests := []struct {
		name   string
		mutate func(*Platform)
	}{
		{"empty name", func(p *Platform) { p.Name = "" }},
		{"no kinds", func(p *Platform) { p.Kinds = nil }},
		{"dup kind", func(p *Platform) { p.Kinds[1].Name = "P" }},
		{"zero count", func(p *Platform) { p.Kinds[0].Count = 0 }},
		{"zero smt", func(p *Platform) { p.Kinds[0].SMT = 0 }},
		{"bad freq", func(p *Platform) { p.Kinds[0].MinFreqGHz = 10 }},
		{"zero ipc", func(p *Platform) { p.Kinds[0].IPC = 0 }},
		{"bad mem penalty", func(p *Platform) { p.Kinds[0].MemPenalty = 2 }},
		{"neg smt gain", func(p *Platform) { p.Kinds[0].SMTMaxGain = -1 }},
		{"zero active watts", func(p *Platform) { p.Kinds[0].ActiveWatts = 0 }},
		{"neg uncore", func(p *Platform) { p.UncoreWatts = -1 }},
		{"zero bw", func(p *Platform) { p.MemBWGips = 0 }},
		{"bad sensors", func(p *Platform) { p.EnergySensors = "magic" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base()
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatal("Validate accepted a bad platform")
			}
		})
	}
}

func TestStringSummary(t *testing.T) {
	s := RaptorLake().String()
	for _, want := range []string{"8×P", "16×E", "smt2", "raptor"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
