package platform

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDescriptionRoundTrip(t *testing.T) {
	for _, p := range []*Platform{RaptorLake(), OdroidXU3()} {
		t.Run(p.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(p); err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := Load(&buf)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if got.Name != p.Name || len(got.Kinds) != len(p.Kinds) {
				t.Fatalf("round trip mismatch: %v vs %v", got, p)
			}
			for i := range p.Kinds {
				if got.Kinds[i] != p.Kinds[i] {
					t.Errorf("kind %d mismatch: %+v vs %+v", i, got.Kinds[i], p.Kinds[i])
				}
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "not json", give: "not-json"},
		{name: "unknown field", give: `{"name":"x","bogus":1}`},
		{name: "invalid platform", give: `{"name":"x","kinds":[]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.give)); err == nil {
				t.Fatal("Load accepted bad description")
			}
		})
	}
}

// writeJSON writes v as JSON to path.
func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hw.json")
	p := OdroidXU3()
	writeJSON(t, path, p)
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got.Name != p.Name {
		t.Errorf("Name = %q, want %q", got.Name, p.Name)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadFile(missing) succeeded")
	}
}
