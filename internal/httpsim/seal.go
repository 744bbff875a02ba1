package httpsim

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Sealer frames and encrypts HTTP messages, standing in for TLS in the
// simulation. Its security model is deliberately simple: whoever knows the
// channel key can read and forge traffic; whoever does not, cannot. That
// is exactly the property the paper's discussion needs — an eavesdropper
// cannot inject into HTTPS flows *unless* it holds a fraudulent
// certificate for the domain (§V: "If our attacker uses a fraudulent
// certificate for some target domain it can similarly inject spoofed TCP
// segments into communication with that domain"), which in this model
// means it obtained the key.
type Sealer interface {
	// Seal frames and encrypts one message.
	Seal(plaintext []byte) []byte
	// Open decrypts the first complete frame in buf, returning the
	// plaintext and bytes consumed. It returns ErrSealIncomplete until a
	// full frame is buffered and ErrSealCorrupt for forgeries.
	Open(buf []byte) (plaintext []byte, consumed int, err error)
}

// Seal layer errors.
var (
	ErrSealIncomplete = errors.New("httpsim: sealed frame incomplete")
	ErrSealCorrupt    = errors.New("httpsim: sealed frame corrupt")
)

var sealMagic = [4]byte{'T', 'L', 'S', '1'}

// LooksSealed reports whether b starts like a sealed frame — all an
// on-path observer without the key can tell about a TLS stand-in record.
func LooksSealed(b []byte) bool {
	return len(b) >= len(sealMagic) && [4]byte(b[:4]) == sealMagic
}

// XORSealer is the toy cipher: a SHA-256-derived keystream XOR with an
// integrity tag. Not cryptography — a capability token for the simulator.
type XORSealer struct {
	// Key is the channel secret, conventionally "tls:" + host.
	Key string
}

var _ Sealer = XORSealer{}

func (x XORSealer) keystream(n int) []byte {
	out := make([]byte, 0, n+sha256.Size)
	var counter uint64
	for len(out) < n {
		var block [8]byte
		binary.BigEndian.PutUint64(block[:], counter)
		sum := sha256.Sum256(append([]byte(x.Key), block[:]...))
		out = append(out, sum[:]...)
		counter++
	}
	return out[:n]
}

func (x XORSealer) tag(ciphertext []byte) [8]byte {
	sum := sha256.Sum256(append([]byte("mac:"+x.Key), ciphertext...))
	var t [8]byte
	copy(t[:], sum[:8])
	return t
}

// Seal implements Sealer. Frame layout: magic(4) | len(4) | tag(8) | body.
func (x XORSealer) Seal(plaintext []byte) []byte {
	ks := x.keystream(len(plaintext))
	body := make([]byte, len(plaintext))
	for i := range plaintext {
		body[i] = plaintext[i] ^ ks[i]
	}
	out := make([]byte, 0, 16+len(body))
	out = append(out, sealMagic[:]...)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(body)))
	out = append(out, lenBuf[:]...)
	t := x.tag(body)
	out = append(out, t[:]...)
	out = append(out, body...)
	return out
}

// Open implements Sealer.
func (x XORSealer) Open(buf []byte) ([]byte, int, error) {
	if len(buf) < 16 {
		return nil, 0, ErrSealIncomplete
	}
	if !LooksSealed(buf) {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrSealCorrupt)
	}
	n := int(binary.BigEndian.Uint32(buf[4:8]))
	if n < 0 || n > 1<<30 {
		return nil, 0, fmt.Errorf("%w: bad length", ErrSealCorrupt)
	}
	if len(buf) < 16+n {
		return nil, 0, ErrSealIncomplete
	}
	var wantTag [8]byte
	copy(wantTag[:], buf[8:16])
	body := buf[16 : 16+n]
	if x.tag(body) != wantTag {
		return nil, 0, fmt.Errorf("%w: bad tag", ErrSealCorrupt)
	}
	ks := x.keystream(n)
	plaintext := make([]byte, n)
	for i := range body {
		plaintext[i] = body[i] ^ ks[i]
	}
	return plaintext, 16 + n, nil
}

// HostKey derives the conventional channel key for a host's TLS stand-in.
// A fraudulent certificate in this model is simply knowledge of HostKey(d)
// by someone other than d's real server.
func HostKey(host string) string { return "tls:" + host }
