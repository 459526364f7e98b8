package harp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/harp-rm/harp/internal/opoint"
	"github.com/harp-rm/harp/internal/platform"
	"github.com/harp-rm/harp/internal/proto"
	"github.com/harp-rm/harp/internal/workload"
)

// rawSession registers a session over a bare connection, so the test can put
// frames on the wire that libharp never would.
func rawSession(t *testing.T, sock, app string, pid int) net.Conn {
	t.Helper()
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := proto.Write(conn, proto.MsgRegister, proto.Register{PID: pid, App: app, Adaptivity: "static"}); err != nil {
		t.Fatal(err)
	}
	env, err := proto.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	var ack proto.RegisterAck
	if err := proto.DecodeBody(env, proto.MsgRegisterAck, &ack); err != nil || !ack.OK {
		t.Fatalf("registration of %s: ack %+v, err %v", app, ack, err)
	}
	return conn
}

// hasSession reports whether instance is registered with srv.
func hasSession(srv *Server, instance string) bool {
	for _, info := range srv.Sessions() {
		if info.Instance == instance {
			return true
		}
	}
	return false
}

// TestMalformedUploads pins what harpd does with a bad operating-points
// upload. A frame whose body is not JSON fails Read: the server closes that
// connection and deregisters the session. A well-formed upload whose table
// fails validation is dropped: the session stays registered and its table is
// unchanged. Neither disturbs a healthy client.
func TestMalformedUploads(t *testing.T) {
	plat := platform.RaptorLake()
	srv, sock := startServer(t, ServerConfig{Platform: plat, DisableExploration: true})

	healthy, err := Dial(sock, Registration{App: "mg.C", PID: 1, Adaptivity: Scalable})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	first, ok := waitActivation(t, healthy)
	if !ok {
		t.Fatal("healthy client got no activation")
	}

	// An upload whose body is cut off mid-object.
	broken := rawSession(t, sock, "broken", 2)
	payload := []byte(`{"type":"operating-points","body":{"table":{"app":"x",}`)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	if _, err := broken.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	_ = broken.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		if _, err := proto.Read(broken); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("the server did not close the connection of a frame with an invalid body")
			}
			break
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for hasSession(srv, "broken/2") {
		if time.Now().After(deadline) {
			t.Fatal("the session of a frame with an invalid body is still registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A well-formed upload of a table that does not fit the platform,
	// followed by a phase change that shows the server has read past it.
	invalid := rawSession(t, sock, "invalid", 3)
	before, err := srv.TableSnapshot("invalid/3")
	if err != nil {
		t.Fatal(err)
	}
	bad := &opoint.Table{App: "invalid", Platform: plat.Name, Points: []opoint.OperatingPoint{
		{Vector: platform.ResourceVector{Counts: [][]int{{1}}}, Utility: 1, Power: 1},
	}}
	if err := proto.Write(invalid, proto.MsgOperatingPoints, proto.OperatingPoints{Table: bad}); err != nil {
		t.Fatal(err)
	}
	if err := proto.Write(invalid, proto.MsgPhaseChange, proto.PhaseChange{Phase: "after"}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		infos := srv.Sessions()
		phase := ""
		for _, info := range infos {
			if info.Instance == "invalid/3" {
				phase = info.Phase
			}
		}
		if phase == "after" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the session that uploaded an invalid table is gone or stuck: %+v", infos)
		}
		time.Sleep(5 * time.Millisecond)
	}
	after, err := srv.TableSnapshot("invalid/3")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Points, before.Points) {
		t.Fatalf("an invalid upload changed the table: %d points before, %d after", len(before.Points), len(after.Points))
	}

	// The healthy client still uploads and is still re-allocated.
	prof, err := workload.ByName(workload.IntelApps(), "mg.C")
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.UploadDescription(bytes.NewReader(offlineDescription(t, plat, prof))); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		if act, ok := healthy.Activation(); ok && act.Seq > first.Seq && len(act.Cores) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the healthy client got no activation after the malformed uploads")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !hasSession(srv, "mg.C/1") || !hasSession(srv, "invalid/3") || len(srv.Sessions()) != 2 {
		t.Fatalf("sessions = %+v, want mg.C/1 and invalid/3", srv.Sessions())
	}
}

// pipeClient is a Client whose connection is one end of a net.Pipe; the
// other end is returned for the test to read what the client sends.
func pipeClient(tb testing.TB) (*Client, net.Conn) {
	tb.Helper()
	local, remote := net.Pipe()
	tb.Cleanup(func() { local.Close(); remote.Close() })
	return &Client{conn: local, reg: Registration{WriteTimeout: 2 * time.Second}}, remote
}

// encoded764 is a 764-point Raptor Lake description as json.Encoder writes
// it, the form the benchmark's clients upload.
func encoded764(tb testing.TB) []byte {
	tb.Helper()
	plat := platform.RaptorLake()
	tbl := &opoint.Table{App: "ep.C", Platform: plat.Name}
	for i, rv := range platform.EnumerateVectors(plat, 0) {
		tbl.Points = append(tbl.Points, opoint.OperatingPoint{
			Vector: rv, Utility: 1e9 + float64(i)*1.25e6, Power: 5 + float64(i)/8, Measured: i%3 != 0, Samples: i % 4,
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(tbl); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestUploadDescriptionForwardsDecodedBytes checks that a description the
// single-pass decoder takes goes on the wire as the bytes read — a number
// json.Marshal would rewrite stays as written — and that an indented one
// is marshalled from its table.
func TestUploadDescriptionForwardsDecodedBytes(t *testing.T) {
	compact := `{"app":"a","platform":"p","points":[{"vector":{"counts":[[1,0],[2]]},"utility":1.50,"power":2E1}]}`
	var indented bytes.Buffer
	tbl := &opoint.Table{App: "a", Platform: "p", Points: []opoint.OperatingPoint{
		{Vector: platform.ResourceVector{Counts: [][]int{{1, 0}, {2}}}, Utility: 1.5, Power: 20},
	}}
	if err := tbl.Save(&indented); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		desc, body string
	}{
		{compact + "\n", `{"table":` + compact + `}`},
		{indented.String(), `{"table":{"app":"a","platform":"p","points":[{"vector":{"counts":[[1,0],[2]]},"utility":1.5,"power":20}]}}`},
	} {
		var want bytes.Buffer
		if err := proto.Write(&want, proto.MsgOperatingPoints, json.RawMessage(c.body)); err != nil {
			t.Fatal(err)
		}
		client, remote := pipeClient(t)
		frame := make(chan []byte, 1)
		go func() {
			b := make([]byte, want.Len())
			_, _ = io.ReadFull(remote, b)
			frame <- b
		}()
		if err := client.UploadDescription(bytes.NewReader([]byte(c.desc))); err != nil {
			t.Fatal(err)
		}
		sent := <-frame
		if !bytes.Equal(sent, want.Bytes()) {
			t.Fatalf("upload of %q sent %q, want %q", c.desc, sent, want.Bytes())
		}
		env, err := proto.Read(bytes.NewReader(sent))
		if err != nil {
			t.Fatal(err)
		}
		var up proto.OperatingPoints
		if err := proto.DecodeBody(env, proto.MsgOperatingPoints, &up); err != nil || !reflect.DeepEqual(up.Table, tbl) {
			t.Fatalf("upload of %q decodes to %+v (err %v), want %+v", c.desc, up.Table, err, tbl)
		}
	}
}

// BenchmarkUploadDescription764 is the client's share of a table upload:
// UploadDescription of the 764-point description to a connection that
// discards what it receives.
func BenchmarkUploadDescription764(b *testing.B) {
	desc := encoded764(b)
	client, remote := pipeClient(b)
	go func() { _, _ = io.Copy(io.Discard, remote) }()
	r := bytes.NewReader(desc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(desc)
		if err := client.UploadDescription(r); err != nil {
			b.Fatal(err)
		}
	}
}
