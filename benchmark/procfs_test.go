package main

import (
	"testing"
	"time"
)

// A command name with spaces and a closing parenthesis: fields must be
// counted from the last ')'.
const fixtureStat = `4242 (harpd (v2) x) S 1 4242 4242 0 -1 4194560 1590 0 3 0 137 45 0 0 20 0 7 0 123456 1268514816 5395 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0
`

const fixtureIO = `rchar: 1048576
wchar: 524288
syscr: 300
syscw: 200
read_bytes: 4096
write_bytes: 8192
cancelled_write_bytes: 0
`

const fixtureStatus = `Name:	harpd
Umask:	0022
State:	S (sleeping)
Threads:	7
voluntary_ctxt_switches:	1200
nonvoluntary_ctxt_switches:	34
`

const fixtureProcStat = `cpu  1000 20 300 8000 50 0 30 600 0 0
cpu0 500 10 150 4000 25 0 15 300 0 0
cpu1 500 10 150 4000 25 0 15 300 0 0
intr 12345
ctxt 67890
`

func TestParseProcStat(t *testing.T) {
	st, err := parseProcStat([]byte(fixtureStat))
	if err != nil {
		t.Fatal(err)
	}
	if want := (137 + 45) * time.Second / clockTick; st.cpu != want {
		t.Errorf("cpu = %v, want %v", st.cpu, want)
	}
	if st.rssPages != 5395 {
		t.Errorf("rss = %d pages, want 5395", st.rssPages)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13 14 15 16 17 18 19 20 21 22"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

func TestParseProcIO(t *testing.T) {
	io, err := parseProcIO([]byte(fixtureIO))
	if err != nil {
		t.Fatal(err)
	}
	if io.bytes != 1048576+524288 || io.syscalls != 500 {
		t.Errorf("io = %+v", io)
	}
	if _, err := parseProcIO([]byte("rchar: 1\nwchar: 2\n")); err == nil {
		t.Error("io without syscall counters accepted")
	}
}

func TestParseCtxSwitches(t *testing.T) {
	if got := parseCtxSwitches([]byte(fixtureStatus)); got != 1234 {
		t.Errorf("context switches = %d, want 1234", got)
	}
	if got := parseCtxSwitches([]byte("Name:\tx\n")); got != 0 {
		t.Errorf("status without counters = %d, want 0", got)
	}
}

func TestParseProcStatCPUAndSteal(t *testing.T) {
	before, err := parseProcStatCPU([]byte(fixtureProcStat))
	if err != nil {
		t.Fatal(err)
	}
	if before.total != 10000 || before.steal != 600 {
		t.Errorf("cpu times = %+v, want total 10000 steal 600", before)
	}
	after := cpuTimes{total: before.total + 400, steal: before.steal + 100}
	if got := stealPct(before, after); !near(got, 25) {
		t.Errorf("steal = %v %%, want 25", got)
	}
	if got := stealPct(after, after); got != 0 {
		t.Errorf("steal over no time = %v, want 0", got)
	}
	if _, err := parseProcStatCPU([]byte("intr 1\n")); err == nil {
		t.Error("/proc/stat without a cpu line accepted")
	}
}

func TestParsePrometheusAndHistQuantile(t *testing.T) {
	text := func(epochs, b1, b2, inf int, sum float64) []byte {
		return []byte("# HELP harp_reallocations_total x\n# TYPE harp_reallocations_total counter\n" +
			"harp_reallocations_total " + itoa(epochs) + "\n" +
			`harp_epoch_phase_seconds_bucket{phase="epoch",le="0.001"} ` + itoa(b1) + "\n" +
			`harp_epoch_phase_seconds_bucket{phase="epoch",le="0.005"} ` + itoa(b2) + "\n" +
			`harp_epoch_phase_seconds_bucket{phase="epoch",le="+Inf"} ` + itoa(inf) + "\n" +
			`harp_epoch_phase_seconds_count{phase="epoch"} ` + itoa(inf) + "\n" +
			`harp_session_utility{instance="a b/1"} 1.5` + "\n")
	}
	before := parsePrometheus(text(10, 10, 10, 10, 0))
	after := parsePrometheus(text(110, 60, 110, 110, 0))
	if after["harp_reallocations_total"] != 110 || after[`harp_session_utility{instance="a b/1"}`] != 1.5 {
		t.Fatalf("parsed %v", after)
	}
	// 100 new observations: 50 ≤ 1 ms, 50 in (1 ms, 5 ms].
	if got := histQuantile(before, after, "harp_epoch_phase_seconds", `phase="epoch",`, 0.5); !near(got, 0.001) {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := histQuantile(before, after, "harp_epoch_phase_seconds", `phase="epoch",`, 0.75); !near(got, 0.003) {
		t.Errorf("p75 = %v, want 0.003", got)
	}
	if got := histQuantile(before, before, "harp_epoch_phase_seconds", `phase="epoch",`, 0.5); got != 0 {
		t.Errorf("quantile of no observations = %v, want 0", got)
	}
}

func itoa(n int) string {
	const digits = "0123456789"
	if n == 0 {
		return "0"
	}
	s := ""
	for ; n > 0; n /= 10 {
		s = string(digits[n%10]) + s
	}
	return s
}

func TestParseExpvarMem(t *testing.T) {
	m, err := parseExpvarMem([]byte(`{"cmdline":["harpd"],"memstats":{"TotalAlloc":4096,"Mallocs":17,"NumGC":3,"PauseTotalNs":2500,"HeapAlloc":9}}`))
	if err != nil {
		t.Fatal(err)
	}
	if m != (memSnap{TotalAlloc: 4096, Mallocs: 17, NumGC: 3, PauseTotalNs: 2500}) {
		t.Errorf("memstats = %+v", m)
	}
	if _, err := parseExpvarMem([]byte(`{"cmdline":[]}`)); err == nil {
		t.Error("/debug/vars without memstats accepted")
	}
}
