package opoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Load reads an application description file (JSON) and validates it against
// nothing — call Table.Validate with a platform to check vector shapes.
// Description files are what ships alongside applications or lives under
// /etc/harp (§4.3). Load reads r to its end. It tries the single-pass
// Decode on what it read, trailing whitespace trimmed, so it takes what
// json.Marshal and json.Encoder write for a table; anything Decode declines
// goes through encoding/json with unknown fields disallowed, which decides
// every error. A description without an application name is an error
// either way.
func Load(r io.Reader) (*Table, error) {
	t, _, err := LoadRaw(r)
	return t, err
}

// LoadRaw is Load that also returns the description's bytes when Decode took
// them: raw is then exactly one table in the shape json.Marshal writes, the
// input without its trailing whitespace. It is nil when encoding/json
// decoded the description.
func LoadRaw(r io.Reader) (t *Table, raw []byte, err error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		buf.Grow(sized.Len() + bytes.MinRead) // one buffer, EOF read included
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, nil, fmt.Errorf("opoint: read description: %w", err)
	}
	trimmed := bytes.TrimRight(buf.Bytes(), " \t\r\n")
	t, ok := Decode(trimmed)
	if ok {
		raw = trimmed
	} else {
		t = new(Table)
		dec := json.NewDecoder(&buf)
		dec.DisallowUnknownFields()
		if err := dec.Decode(t); err != nil {
			return nil, nil, fmt.Errorf("opoint: decode description: %w", err)
		}
	}
	if t.App == "" {
		return nil, nil, errors.New("opoint: description without application name")
	}
	return t, raw, nil
}

// LoadFile reads the description at path.
func LoadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opoint: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Save writes the table as indented JSON.
func (t *Table) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("opoint: encode description: %w", err)
	}
	return nil
}

// SaveFile writes the table to path, creating parent directories.
func (t *Table) SaveFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("opoint: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("opoint: %w", err)
	}
	if err := t.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadDir loads every *.json description in a directory, keyed by App name.
// Missing directories yield an empty map — a system without profiles is a
// normal HARP deployment (profiles are then learned online, §5).
func LoadDir(dir string) (map[string]*Table, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return map[string]*Table{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("opoint: %w", err)
	}
	out := make(map[string]*Table)
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		t, err := LoadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("opoint: %s: %w", e.Name(), err)
		}
		out[t.App] = t
	}
	return out, nil
}
