package faultsim

import (
	"bytes"
	"encoding/json"
	"net"
	"reflect"
	"testing"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	targets := []string{"ep.C", "mg.C", "lu.A"}
	a := Generate(42, targets, time.Minute, 16)
	b := Generate(42, targets, time.Minute, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	var ab, bb bytes.Buffer
	if err := json.NewEncoder(&ab).Encode(a); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&bb).Encode(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("same seed produced different encodings")
	}
	c := Generate(43, targets, time.Minute, 16)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	for _, f := range a.Faults {
		if f.At < time.Minute/10 || f.At > time.Minute*9/10 {
			t.Errorf("fault at %v outside the [10%%, 90%%] window", f.At)
		}
	}
}

func TestGenerateKindSubset(t *testing.T) {
	p := Generate(7, []string{"x"}, time.Minute, 32, KindCrash)
	for _, f := range p.Faults {
		if f.Kind != KindCrash {
			t.Fatalf("kind %q generated outside the requested subset", f.Kind)
		}
	}
}

func TestPlanRoundTrip(t *testing.T) {
	p := Generate(3, []string{"a", "b"}, 10*time.Second, 8,
		KindCrash, KindHang, KindDropout, KindSlowReader, KindDisconnect, KindDelayWrites)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	got := &Plan{}
	if err := json.Unmarshal(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, got)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []Plan{
		{Faults: []Fault{{At: time.Second, Target: "x", Kind: "melt"}}},
		{Faults: []Fault{{At: time.Second, Kind: KindCrash}}},
		{Faults: []Fault{{At: -time.Second, Target: "x", Kind: KindCrash}}},
		{Faults: []Fault{{At: time.Second, Target: "x", Kind: KindHang}}}, // timed, no duration
		{Faults: []Fault{
			{At: 2 * time.Second, Target: "x", Kind: KindCrash},
			{At: time.Second, Target: "x", Kind: KindCrash},
		}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

func TestClusterKinds(t *testing.T) {
	for _, k := range []Kind{KindMachineKill, KindCoordKill} {
		if !k.Valid() || !k.ClusterKind() {
			t.Errorf("%s: Valid/ClusterKind should both hold", k)
		}
		if k.Timed() || k.RMKind() {
			t.Errorf("%s: cluster kinds are permanent and not RM-targeted", k)
		}
	}
	if KindCrash.ClusterKind() || KindRMCrash.ClusterKind() {
		t.Error("non-cluster kinds reported as cluster kinds")
	}
	good := Plan{Faults: []Fault{
		{At: time.Second, Target: "m1", Kind: KindMachineKill},
		{At: 2 * time.Second, Target: CoordinatorTarget, Kind: KindCoordKill},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("cluster plan rejected: %v", err)
	}
	bad := Plan{Faults: []Fault{{At: time.Second, Target: "m1", Kind: KindCoordKill}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("coordinator-kill with a machine target accepted")
	}
}

func TestCursorDelivery(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{At: time.Second, Target: "a", Kind: KindCrash},
		{At: 2 * time.Second, Target: "b", Kind: KindCrash},
		{At: 2 * time.Second, Target: "c", Kind: KindCrash},
		{At: 5 * time.Second, Target: "d", Kind: KindCrash},
	}}
	cur := p.Cursor()
	if got := cur.Due(500 * time.Millisecond); got != nil {
		t.Fatalf("early faults delivered: %+v", got)
	}
	if got := cur.Due(2 * time.Second); len(got) != 3 {
		t.Fatalf("due at 2s = %d faults, want 3", len(got))
	}
	if got := cur.Due(2 * time.Second); got != nil {
		t.Fatalf("faults delivered twice: %+v", got)
	}
	if got := cur.Due(time.Minute); len(got) != 1 || got[0].Target != "d" {
		t.Fatalf("final delivery wrong: %+v", got)
	}
	var nilPlan *Plan
	if nilPlan.Cursor().Due(time.Hour) != nil {
		t.Error("nil plan delivered faults")
	}
}

func TestConnWriteFaults(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := WrapConn(a)

	// Dropped writes report success without delivering anything.
	fc.DropWrites(true)
	if n, err := fc.Write([]byte("lost")); n != 4 || err != nil {
		t.Fatalf("dropped write = (%d, %v)", n, err)
	}
	_ = b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 8)
	if _, err := b.Read(buf); err == nil {
		t.Fatal("dropped write reached the peer")
	}

	// Restored transparency delivers again.
	fc.DropWrites(false)
	go func() { _, _ = fc.Write([]byte("ok")) }()
	_ = b.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "ok" {
		t.Fatalf("post-drop write = (%q, %v)", buf[:n], err)
	}
}

func TestConnDelaysAndStalls(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := WrapConn(a)

	fc.DelayWrites(60 * time.Millisecond)
	start := time.Now()
	go func() {
		buf := make([]byte, 8)
		_, _ = b.Read(buf)
	}()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Errorf("delayed write completed in %v", d)
	}

	fc.DelayWrites(0)
	// The stall runs from StallReads, so the clock starts before it: taken
	// after, any delay in between would shorten the stall it measures.
	start = time.Now()
	fc.StallReads(60 * time.Millisecond)
	go func() { _, _ = b.Write([]byte("y")) }()
	buf := make([]byte, 8)
	if _, err := fc.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Errorf("stalled read completed in %v", d)
	}
}

func TestListenerRegistry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := WrapListener(ln)
	defer fl.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			c, err := fl.Accept()
			if err != nil {
				return
			}
			if _, ok := c.(*Conn); !ok {
				t.Errorf("accepted conn not wrapped: %T", c)
			}
		}
	}()
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	<-done
	if got := len(fl.Conns()); got != 2 {
		t.Fatalf("registry holds %d conns, want 2", got)
	}
}
