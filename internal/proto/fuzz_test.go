package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
)

// seedFrames builds the fuzz corpus from the same real protocol messages the
// unit tests exercise, plus the adversarial shapes Read must reject.
func seedFrames(f *testing.F) {
	f.Helper()
	add := func(typ MsgType, body any) {
		var buf bytes.Buffer
		if err := Write(&buf, typ, body); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	add(MsgRegister, Register{PID: 1234, App: "ep.C", Adaptivity: "scalable", OwnUtility: true, ReplyAddr: "/tmp/x.sock"})
	add(MsgRegisterAck, RegisterAck{SessionID: "ep.C/1234", OK: true})
	add(MsgRegisterAck, RegisterAck{OK: false, Error: "duplicate session"})
	add(MsgActivate, Activate{
		Seq: 7, VectorKey: "1,2|4", Threads: 9,
		Cores:       []CoreGrant{{Core: 0, Threads: 1}, {Core: 1, Threads: 2}, {Core: 8, Threads: 1}},
		CoAllocated: true,
	})
	add(MsgUtilityReport, UtilityReport{Seq: 3, Utility: 42.5})
	add(MsgPhaseChange, PhaseChange{Phase: "stage-2"})
	add(MsgOperatingPoints, OperatingPoints{Table: smallTable()})
	add(MsgUtilityRequest, nil)
	add(MsgExit, nil)
	add(MsgPing, nil)
	add(MsgPong, nil)

	// Adversarial shapes from the unit tests.
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	var oversized [4]byte
	binary.BigEndian.PutUint32(oversized[:], MaxFrame+1)
	f.Add(oversized[:])
	f.Add([]byte("\x00\x00\x00\x10this is not json"))
	f.Add([]byte("\x00\x00\x00\x0d{\"body\":null}"))
	// Two frames back to back.
	var multi bytes.Buffer
	_ = Write(&multi, MsgUtilityReport, UtilityReport{Seq: 1, Utility: 1.5})
	_ = Write(&multi, MsgExit, nil)
	f.Add(multi.Bytes())
}

// FuzzRead feeds arbitrary byte streams to the frame reader: it must never
// panic, every accepted envelope must carry a type, and accepted envelopes
// must survive a re-encode/re-read round trip. The same bytes, taken as one
// frame's payload, hold the hand-parsed envelope to json.Unmarshal: whatever
// parseEnvelope accepts, json.Unmarshal decodes to the same envelope. An
// upload parseEnvelope decoded carries its table in place of the body; the
// table must be the one json.Unmarshal decodes from that body.
func FuzzRead(f *testing.F) {
	seedFrames(f)
	upload := string(marshalBody(f, smallTable()))
	f.Add([]byte(`{"type":"operating-points","body":` + upload + `}`))
	f.Add([]byte(`{"type":"operating-points","body":` + upload[:len(upload)-1] + `}`))
	f.Add([]byte(`{"type":"operating-points","body":{"table":null}}`))
	f.Add([]byte(`{"type":"exit","body":null}`))
	f.Add([]byte(`{"type":"x","body": 1}`))
	f.Add([]byte(`{"type":"x","body":1,"type":"y"}`))
	f.Add([]byte(`{"type":"\u0078"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if env, ok := parseEnvelope(data); ok {
			var want Envelope
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("parseEnvelope accepted a payload json.Unmarshal rejects (%v): %q", err, data)
			}
			if env.table != nil {
				var up OperatingPoints
				if err := json.Unmarshal(want.Body, &up); err != nil {
					t.Fatalf("parseEnvelope decoded an upload json.Unmarshal rejects (%v): %q", err, data)
				}
				if !reflect.DeepEqual(env.table, up.Table) || env.Body != nil {
					t.Fatalf("parseEnvelope decoded %#v (body %q), json.Unmarshal %#v from %q", env.table, env.Body, up.Table, data)
				}
				env.table, env.Body = nil, want.Body
			}
			if !reflect.DeepEqual(env, want) {
				t.Fatalf("parseEnvelope = %+v, json.Unmarshal = %+v for %q", env, want, data)
			}
		}
		r := bytes.NewReader(data)
		for i := 0; i < 64; i++ {
			env, err := Read(r)
			if err != nil {
				return // rejection is fine; panics and hangs are the bug
			}
			if env.Type == "" {
				t.Fatal("Read accepted an envelope without a type")
			}
			var buf bytes.Buffer
			var body any
			if len(env.Body) > 0 {
				body = env.Body
			}
			if env.table != nil {
				body = OperatingPoints{Table: env.table}
			}
			if err := Write(&buf, env.Type, body); err != nil {
				t.Fatalf("accepted envelope does not re-encode: %v", err)
			}
			again, err := Read(&buf)
			if err != nil {
				t.Fatalf("re-encoded envelope does not re-read: %v", err)
			}
			if again.Type != env.Type {
				t.Fatalf("type changed across round trip: %q -> %q", env.Type, again.Type)
			}
		}
	})
}

// FuzzWrite drives the framer with arbitrary message types and JSON bodies:
// Write must accept and reject what the reference encoder does, with
// byte-identical frames, and whenever it accepts, Read must hand back the
// same type and an equivalent body — for an upload Read decoded, the table
// json.Unmarshal decodes from the body.
func FuzzWrite(f *testing.F) {
	f.Add(string(MsgRegister), []byte(`{"pid":1,"app":"x","adaptivity":"static"}`))
	f.Add(string(MsgActivate), []byte(`{"seq":1,"vectorKey":"1|2","cores":[{"core":0,"threads":1}]}`))
	f.Add(string(MsgUtilityReport), []byte(`{"seq":2,"utility":3.5}`))
	f.Add(string(MsgExit), []byte(nil))
	f.Add(string(MsgPong), []byte(`null`))
	f.Add("custom-extension", []byte(`{"future":"field"}`))
	f.Add(string(MsgOperatingPoints), marshalBody(f, smallTable()))
	f.Fuzz(func(t *testing.T, typ string, body []byte) {
		var payload any
		if len(body) > 0 {
			payload = json.RawMessage(body)
		}
		var buf, ref bytes.Buffer
		err := Write(&buf, MsgType(typ), payload)
		refErr := writeReference(&ref, MsgType(typ), payload)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Write err = %v, reference err = %v", err, refErr)
		}
		if err != nil {
			return // invalid JSON bodies and oversized frames are rejected
		}
		if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatalf("frame differs from the reference encoder's:\n got %q\nwant %q", buf.Bytes(), ref.Bytes())
		}
		env, err := Read(&buf)
		if typ == "" {
			if err == nil {
				t.Fatal("typeless envelope accepted by Read")
			}
			return
		}
		if err != nil {
			t.Fatalf("written frame does not read back: %v", err)
		}
		if env.Type != MsgType(typ) {
			t.Fatalf("type = %q, want %q", env.Type, typ)
		}
		if env.table != nil {
			var up OperatingPoints
			if err := json.Unmarshal(body, &up); err != nil || !reflect.DeepEqual(env.table, up.Table) {
				t.Fatalf("Read decoded %#v, json.Unmarshal %#v (err %v) from %q", env.table, up.Table, err, body)
			}
			return
		}
		if len(body) > 0 && json.Valid(body) {
			var want, got any
			if json.Unmarshal(body, &want) == nil {
				if err := json.Unmarshal(env.Body, &got); err != nil {
					t.Fatalf("body does not decode: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("body changed: %v -> %v", want, got)
				}
			}
		}
	})
}
