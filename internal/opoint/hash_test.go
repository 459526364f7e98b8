package opoint

import (
	"fmt"
	"testing"
)

// The shared hasher absorbs a string by length and content, so neither a
// split point nor trailing zero bytes can alias.
func TestHasherStringFraming(t *testing.T) {
	sum := func(parts ...string) Hasher {
		h := NewHasher()
		for _, s := range parts {
			h.Str(s)
		}
		return h
	}
	seen := map[Hasher]string{}
	for _, parts := range [][]string{
		{"abcdefgh", "ij"}, {"abcdefghij"}, {"abcdefgh", "ij", ""}, {"abcdefghi", "j"},
		{"a"}, {"a\x00"}, {""}, {"", ""},
	} {
		label := fmt.Sprintf("%q", parts)
		h := sum(parts...)
		if prev, dup := seen[h]; dup {
			t.Errorf("%s collides with %s", label, prev)
		}
		seen[h] = label
	}
}
