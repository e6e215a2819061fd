package model_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bpms/internal/model"
	"bpms/internal/verify"
)

// FuzzDecodeJSON feeds DecodeJSON what a deploy body may hold. The
// oracle: it returns an error, or a process that compiles, encodes to
// JSON that decodes to the same encoding, and goes through a bounded
// soundness check without a panic. The seeds are the definitions under
// testdata/.
func FuzzDecodeJSON(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seeds: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := model.DecodeJSON(data)
		if err != nil {
			return
		}
		if err := p.Compile(); err != nil {
			t.Fatalf("decoded definition does not compile: %v", err)
		}
		enc, err := model.EncodeJSON(p)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		again, err := model.DecodeJSON(enc)
		if err != nil {
			t.Fatalf("re-decode: %v\n%s", err, enc)
		}
		enc2, err := model.EncodeJSON(again)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the encoding:\n%s\n%s", enc, enc2)
		}
		_, _ = verify.Check(p, verify.Options{MaxStates: 2000, UseReduction: true})
	})
}
