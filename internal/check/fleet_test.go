package check

import (
	"reflect"
	"strings"
	"testing"
)

func healthyFleet() FleetView {
	return FleetView{
		BudgetW: 100,
		Machines: []FleetMachine{
			{ID: "m0", Alive: true, CapW: 50, Sessions: []string{"a/1", "b/2"}, AdmittedW: 40, StandingPowerW: 31},
			{ID: "m1", Alive: true, CapW: 50, Sessions: []string{"c/3"}, AdmittedW: 20, StandingPowerW: 12},
			{ID: "m2", Alive: false, CapW: 0},
		},
	}
}

func TestCheckFleetAcceptsHealthyView(t *testing.T) {
	if err := CheckFleet(healthyFleet()); err != nil {
		t.Fatalf("healthy fleet rejected: %v", err)
	}
}

func TestCheckFleetViolations(t *testing.T) {
	cases := map[string]struct {
		mutate func(*FleetView)
		want   string
	}{
		"double-placement": {
			mutate: func(v *FleetView) { v.Machines[1].Sessions = append(v.Machines[1].Sessions, "a/1") },
			want:   "double-placed",
		},
		"dead-machine-owns": {
			mutate: func(v *FleetView) { v.Machines[2].Sessions = []string{"d/4"} },
			want:   "dead machine",
		},
		"admitted-over-cap": {
			mutate: func(v *FleetView) { v.Machines[0].AdmittedW = 50.1 },
			want:   "admitted",
		},
		"standing-over-cap": {
			mutate: func(v *FleetView) { v.Machines[1].StandingPowerW = 51 },
			want:   "standing power",
		},
		"caps-over-budget": {
			mutate: func(v *FleetView) {
				v.Machines[0].CapW = 60
				v.Machines[0].AdmittedW = 0
				v.Machines[0].StandingPowerW = 0
			},
			want: "fleet budget",
		},
		"duplicate-machine": {
			mutate: func(v *FleetView) { v.Machines[2].ID = "m0" },
			want:   "duplicate machine",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			v := healthyFleet()
			tc.mutate(&v)
			err := CheckFleet(v)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestCheckFleetZeroBudgetSkipsBudgetChecks(t *testing.T) {
	v := healthyFleet()
	v.BudgetW = 0
	v.Machines[0].CapW = 1e9 // caps can exceed any budget when none is set
	if err := CheckFleet(v); err != nil {
		t.Fatalf("zero-budget fleet rejected: %v", err)
	}
}

func TestOrphans(t *testing.T) {
	v := healthyFleet()
	got := Orphans(v, []string{"c/3", "z/9", "a/1", "y/8"})
	if want := []string{"y/8", "z/9"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("orphans = %v, want %v", got, want)
	}
	if got := Orphans(v, []string{"a/1"}); got != nil {
		t.Fatalf("no orphans expected, got %v", got)
	}
}
