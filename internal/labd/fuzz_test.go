package labd

import (
	"bytes"
	"testing"
)

// FuzzUnsealRecord holds the record decoder to the encoder on
// arbitrary bytes: unseal never panics, undoes seal exactly, and
// accepts nothing seal did not write — whenever unseal(data) succeeds,
// seal of the body it returns is data again. The seed corpus in
// testdata/fuzz/FuzzUnsealRecord holds a sealed record, one without a
// trailer, a truncated trailer, a trailer with a wrong digest, and an
// empty file.
func FuzzUnsealRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := unseal(seal(data))
		if err != nil || !bytes.Equal(body, data) {
			t.Fatalf("unseal(seal(b)) = %q, %v; want b back", body, err)
		}
		body, err = unseal(data)
		if err != nil {
			return
		}
		if sealed := seal(body); !bytes.Equal(sealed, data) {
			t.Fatalf("unseal accepted %q, which seal writes as %q", data, sealed)
		}
	})
}
