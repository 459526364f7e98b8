package main

// `harpctl fleet`: the cross-machine operator view, one row per machine
// built from each daemon's harp.Status and health report.

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// fleetRow is one machine in the `fleet` view. Unreachable machines carry
// the dial error instead of failing the whole command — during an incident
// the surviving machines are exactly what the operator needs to see.
type fleetRow struct {
	Machine     string  `json:"machine"`
	Up          bool    `json:"up"`
	Error       string  `json:"error,omitempty"`
	Health      string  `json:"health,omitempty"`
	Sessions    int     `json:"sessions"`
	FleetPowerW float64 `json:"fleet_power_w"`
	BudgetW     float64 `json:"budget_w"`
	UptimeSec   float64 `json:"uptime_sec"`
	Degraded    string  `json:"degraded_rung,omitempty"`
}

// fleetQuery collects one machine's row.
func fleetQuery(sock string) fleetRow {
	row := fleetRow{Machine: sock}
	st, err := queryStatus(sock)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	row.Up = true
	row.Sessions = len(st.Sessions)
	row.FleetPowerW = st.FleetPowerW
	row.BudgetW = st.BudgetW
	row.UptimeSec = st.UptimeSec
	row.Degraded = st.DegradedRung
	if rep, err := queryHealth(sock); err == nil {
		row.Health = string(rep.Status)
	}
	return row
}

// runFleet implements `harpctl fleet [-json] <socket>...`.
func runFleet(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("harpctl fleet", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit one JSON object per machine")
	if err := fs.Parse(args); err != nil {
		return err
	}
	socks := fs.Args()
	if len(socks) == 0 {
		return errors.New("usage: harpctl fleet [-json] <control-socket>...")
	}
	rows := make([]fleetRow, 0, len(socks))
	down := 0
	for _, sock := range socks {
		row := fleetQuery(sock)
		if !row.Up {
			down++
		}
		rows = append(rows, row)
	}
	if *asJSON {
		if err := printJSON(out, rows); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "%-32s %-6s %-10s %8s %9s %10s %8s  %s\n",
			"MACHINE", "STATE", "HEALTH", "SESSIONS", "POWER[W]", "BUDGET[W]", "UP", "NOTES")
		for _, r := range rows {
			if !r.Up {
				fmt.Fprintf(out, "%-32s %-6s %-10s %8s %9s %10s %8s  %s\n",
					r.Machine, "down", "-", "-", "-", "-", "-", r.Error)
				continue
			}
			notes := ""
			if r.Degraded != "" {
				notes = "degraded via " + r.Degraded
			}
			fmt.Fprintf(out, "%-32s %-6s %-10s %8d %9.1f %10.1f %8s  %s\n",
				r.Machine, "up", orDash(r.Health), r.Sessions, r.FleetPowerW, r.BudgetW,
				uptime(r.UptimeSec), notes)
		}
	}
	if down > 0 {
		return exitError{code: 1}
	}
	return nil
}
