package proto

import (
	"bytes"
	"strings"
	"testing"
)

// frames encodes the given messages back-to-back as they would appear on a
// connection.
func frames(t testing.TB, n int, typ MsgType, body any) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		if err := Write(&buf, typ, body); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestReaderMatchesRead(t *testing.T) {
	body := UtilityReport{Seq: 7, Utility: 42.5}
	raw := frames(t, 3, MsgUtilityReport, body)

	rd := NewReader(bytes.NewReader(raw))
	plain := bytes.NewReader(raw)
	for i := 0; i < 3; i++ {
		got, err := rd.Read()
		if err != nil {
			t.Fatalf("Reader.Read %d: %v", i, err)
		}
		want, err := Read(plain)
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("frame %d: Reader %+v != Read %+v", i, got, want)
		}
	}
	if _, err := rd.Read(); err == nil {
		t.Fatal("Reader.Read past end succeeded")
	}
}

// TestReaderReusesBuffer pins the point of Reader: once grown, the frame
// buffer is reused across messages instead of reallocated per frame.
func TestReaderReusesBuffer(t *testing.T) {
	raw := frames(t, 2, MsgUtilityReport, UtilityReport{Seq: 1, Utility: 1})
	rd := NewReader(bytes.NewReader(raw))
	if _, err := rd.Read(); err != nil {
		t.Fatal(err)
	}
	first := &rd.buf[0]
	env, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if &rd.buf[0] != first {
		t.Fatal("Reader reallocated its frame buffer for a same-size frame")
	}
	// The decoded body must not alias the reused buffer: mutate the buffer
	// and check the envelope is unaffected.
	copyBefore := string(env.Body)
	for i := range rd.buf {
		rd.buf[i] = 0
	}
	if string(env.Body) != copyBefore {
		t.Fatal("Envelope.Body aliases the Reader's reused buffer")
	}
}

// TestParsedEnvelopeDoesNotAlias pins the copy on the hand-parsed envelope
// path: Body holds bytes of its own, not a window of the frame buffer.
func TestParsedEnvelopeDoesNotAlias(t *testing.T) {
	raw := benchTable(t)
	rd := NewReader(bytes.NewReader(raw))
	env, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parseEnvelope(rd.buf); !ok {
		t.Fatal("the upload frame did not take the hand-parsed envelope path")
	}
	before := string(env.Body)
	for i := range rd.buf {
		rd.buf[i] = 0
	}
	if string(env.Body) != before {
		t.Fatal("Envelope.Body aliases the Reader's frame buffer")
	}
	if cap(env.Body) != len(env.Body) {
		t.Fatalf("Envelope.Body cap %d, len %d", cap(env.Body), len(env.Body))
	}
}

// TestReaderRejectsOversizedFrame mirrors Read's MaxFrame check.
func TestReaderRejectsOversizedFrame(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := NewReader(bytes.NewReader(raw)).Read(); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// benchTable frames the real shape of the largest message on the wire: a
// Raptor Lake operating-points upload with all 764 vectors (table764).
func benchTable(t testing.TB) []byte {
	return frames(t, 1, MsgOperatingPoints, OperatingPoints{Table: table764(t)})
}

func BenchmarkRead(b *testing.B) {
	raw := benchTable(b)
	r := bytes.NewReader(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		if _, err := Read(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderRead(b *testing.B) {
	raw := benchTable(b)
	r := bytes.NewReader(raw)
	rd := NewReader(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		if _, err := rd.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeTable764 is the upload path harpd runs per table: one
// Reader.Read of the 764-point frame plus DecodeBody.
func BenchmarkDecodeTable764(b *testing.B) {
	raw := benchTable(b)
	r := bytes.NewReader(raw)
	rd := NewReader(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		env, err := rd.Read()
		if err != nil {
			b.Fatal(err)
		}
		var up OperatingPoints
		if err := DecodeBody(env, MsgOperatingPoints, &up); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReaderHeaderError keeps the wrapped-error text stable for callers that
// match on it.
func TestReaderHeaderError(t *testing.T) {
	_, err := NewReader(strings.NewReader("\x00\x00")).Read()
	if err == nil || !strings.Contains(err.Error(), "read header") {
		t.Fatalf("truncated header err = %v", err)
	}
}
