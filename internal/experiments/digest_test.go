package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"testing"
)

// quickRecordDigests are the SHA-256 digests of each scenario-matrix
// driver's Format output for the Quick, seed-1 configuration. The shape
// tests only bound these numbers; the digests pin them, so a refactor of the
// drivers or of anything they run (the simulator, the policies, learning,
// attribution) that moves a printed figure fails here. A change that moves a
// figure on purpose re-pins the digest and records the
// `harp-sim experiment -quick -seed 1 all` diff with it.
var quickRecordDigests = map[string]string{
	"fig6":        "8d1e4dfec13f9a14c0bcb072aacb9430a597d89c8a7649edc08691564ae8be72",
	"fig7":        "d1eeb6c874f6d9138c7d2fcba6be7efeb2516ef833cd8b7f6d25c898f6decb1c",
	"fig8":        "7487dfaf2b3f55f2fd545ec1cbbcc72014678cca0322196d98ff6473b23ea87a",
	"governor":    "0cffc751eeb562bcb45460392b76c2ad37076115391edc4f2f9eed74b186fb82",
	"overhead":    "ad993ba824e825565eedcb0ba7b8d4408856b3193ffe1accf722449bae48ab71",
	"attribution": "bb346a01a6bd30fe337ef67a5af03ff0611f8813a5ef1b2cc073ef7a489a6860",
}

// TestQuickRecordDigests runs the six scenario-matrix drivers at their quick
// scale and compares the digest of what each prints. amd64 only, as the
// journal digests.
func TestQuickRecordDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("record digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	type formatter interface{ Format(io.Writer) }
	drivers := []struct {
		name string
		run  func(Config) (formatter, error)
	}{
		{"fig6", func(c Config) (formatter, error) { return Fig6(c) }},
		{"fig7", func(c Config) (formatter, error) { return Fig7(c) }},
		{"fig8", func(c Config) (formatter, error) { return Fig8(c) }},
		{"governor", func(c Config) (formatter, error) { return Governor(c) }},
		{"overhead", func(c Config) (formatter, error) { return Overhead(c) }},
		{"attribution", func(c Config) (formatter, error) { return Attribution(c) }},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			res, err := d.run(quickCfg())
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			res.Format(h)
			if got, want := hex.EncodeToString(h.Sum(nil)), quickRecordDigests[d.name]; got != want {
				t.Errorf("%s quick record digest = %s, want %s", d.name, got, want)
			}
		})
	}
}
