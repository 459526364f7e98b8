package platform

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Load reads a hardware description (JSON) from r and validates it. This is
// the file a vendor or setup tool would drop into /etc/harp (§4.3).
func Load(r io.Reader) (*Platform, error) {
	var p Platform
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("platform: decode description: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadFile reads and validates the hardware description at path.
func LoadFile(path string) (*Platform, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	defer f.Close()
	return Load(f)
}
