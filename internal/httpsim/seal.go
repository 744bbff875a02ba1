package httpsim

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// The TLS stand-in frames and encrypts one HTTP message per record under
// a host's key. Its security model is deliberately simple: whoever knows
// a host's key can read and forge that host's traffic; whoever does not,
// cannot. That is exactly the property the paper's discussion needs — an
// eavesdropper cannot inject into HTTPS flows *unless* it holds a
// fraudulent certificate for the domain (§V: "If our attacker uses a
// fraudulent certificate for some target domain it can similarly inject
// spoofed TCP segments into communication with that domain"), which in
// this model means it may seal and open records under that host's key.
//
// The cipher is a toy: a SHA-256-derived keystream XOR with an integrity
// tag. Not cryptography — a capability token for the simulator. Block i
// of host's keystream is SHA-256(keyPrefix + host + BE64(i)), and a
// record's tag is the first 8 bytes of SHA-256(macPrefix + host +
// ciphertext). Only this file knows that rule.
const (
	keyPrefix = "tls:"
	macPrefix = "mac:" + keyPrefix
)

// Seal layer errors.
var (
	ErrSealIncomplete = errors.New("httpsim: sealed frame incomplete")
	ErrSealCorrupt    = errors.New("httpsim: sealed frame corrupt")
)

// sealHeader is the frame prefix: magic(4) | len(4) | tag(8).
const sealHeader = 16

var sealMagic = [4]byte{'T', 'L', 'S', '1'}

// LooksSealed reports whether b starts like a sealed frame — all an
// on-path observer without the key can tell about a TLS stand-in record.
func LooksSealed(b []byte) bool {
	return len(b) >= len(sealMagic) && [4]byte(b[:4]) == sealMagic
}

// xorStream writes src XOR host's keystream into dst, which is at least
// as long as src.
func xorStream(dst, src []byte, host string) {
	in := make([]byte, 0, 64)
	in = append(in, keyPrefix...)
	in = append(in, host...)
	ctr := len(in)
	in = binary.BigEndian.AppendUint64(in, 0)
	for i := uint64(0); len(src) > 0; i++ {
		binary.BigEndian.PutUint64(in[ctr:], i)
		block := sha256.Sum256(in)
		n := subtle.XORBytes(dst, src, block[:])
		dst, src = dst[n:], src[n:]
	}
}

// tag is the integrity check of a ciphertext sealed under host's key.
func tag(host string, ciphertext []byte) [8]byte {
	in := make([]byte, 0, len(macPrefix)+len(host)+len(ciphertext))
	in = append(in, macPrefix...)
	in = append(in, host...)
	sum := sha256.Sum256(append(in, ciphertext...))
	return [8]byte(sum[:8])
}

// Seal frames and encrypts one message under host's key, in one
// allocation besides the tag's.
func Seal(host string, plaintext []byte) []byte {
	out := make([]byte, sealHeader+len(plaintext))
	copy(out, sealMagic[:])
	binary.BigEndian.PutUint32(out[4:8], uint32(len(plaintext)))
	body := out[sealHeader:]
	xorStream(body, plaintext, host)
	t := tag(host, body)
	copy(out[8:sealHeader], t[:])
	return out
}

// Open decrypts the first complete frame in buf under host's key. It
// returns ErrSealIncomplete until a full frame is buffered and
// ErrSealCorrupt for a frame that is malformed or sealed under another
// key — a forgery.
func Open(host string, buf []byte) ([]byte, error) {
	_, plaintext, err := OpenAny([]string{host}, buf)
	return plaintext, err
}

// OpenAny opens the first complete frame in buf with the first of hosts
// whose key authenticates it, trying them in order, and returns that
// host with the plaintext: a server holding several hosts' certificates
// learns which one its client sealed for. The errors are Open's.
func OpenAny(hosts []string, buf []byte) (string, []byte, error) {
	if len(buf) < sealHeader {
		return "", nil, ErrSealIncomplete
	}
	if !LooksSealed(buf) {
		return "", nil, fmt.Errorf("%w: bad magic", ErrSealCorrupt)
	}
	n := int(binary.BigEndian.Uint32(buf[4:8]))
	if n > 1<<30 {
		return "", nil, fmt.Errorf("%w: bad length", ErrSealCorrupt)
	}
	if len(buf) < sealHeader+n {
		return "", nil, ErrSealIncomplete
	}
	want := [8]byte(buf[8:sealHeader])
	body := buf[sealHeader : sealHeader+n]
	for _, host := range hosts {
		if tag(host, body) == want {
			plaintext := make([]byte, len(body))
			xorStream(plaintext, body, host)
			return host, plaintext, nil
		}
	}
	return "", nil, fmt.Errorf("%w: bad tag", ErrSealCorrupt)
}
