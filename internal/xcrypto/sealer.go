// Package xcrypto provides the authenticated block encryption used by the
// oblivious join engine.
//
// Every block stored on the untrusted server is sealed with AES-128-GCM
// under a fresh random nonce, so two encryptions of the same plaintext are
// computationally indistinguishable — the property the paper's security model
// (Section 3.2) requires: "two encrypted copies of the same data block look
// different" — and any server-side tampering is detected at Open. The paper
// used AES/CFB from Crypto++; an AEAD strengthens that to authenticated
// encryption without changing the sealed-block size.
//
// The sealed layout is versioned. Format 2 (current) is
//
//	format(1) || epoch(1) || reserved(2) || nonce(12) || ciphertext || tag(16)
//
// where the 4 header bytes ride as GCM additional data (so the format and
// key epoch are themselves authenticated) and the epoch byte selects the
// HKDF-derived subkey the block was sealed under, enabling key rotation
// (see Keyring). Format 1 — the original AES-CTR + HMAC-SHA256 construction,
// IV(16) || ciphertext || truncated-HMAC(16) — has no format byte, but both
// constructions authenticate, so Open disambiguates by trial: a block that
// fails the GCM path is re-tried through the legacy path, and pre-refactor
// disk stores keep loading. Both layouts cost exactly Overhead bytes.
package xcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// KeySize is the AES key length in bytes (AES-128, as in the paper).
const KeySize = 16

// IVSize is the legacy format's per-block initialization vector length; the
// current GCM format spends the same 16 bytes on a 4-byte header plus a
// 12-byte nonce, keeping the layouts size-compatible.
const IVSize = aes.BlockSize

// NonceSize is the GCM nonce length in the current sealed layout.
const NonceSize = 12

// headerSize is the authenticated header of the current layout:
// format byte, epoch byte, two reserved zero bytes.
const headerSize = 4

// TagSize is the length of the authentication tag appended to each sealed
// block (GCM tag now; truncated HMAC-SHA256 in the legacy format).
const TagSize = 16

// Overhead is the number of bytes Seal adds to a plaintext block. It is
// identical for the GCM and legacy layouts, so block geometry — ORAM bucket
// sizes, disk slots, wire frames — is format-independent.
const Overhead = headerSize + NonceSize + TagSize

// FormatGCM is the format byte of the current AES-GCM sealed layout.
// (Format 1 is the headerless legacy CTR+HMAC construction.)
const FormatGCM = 2

// Errors returned by Open.
var (
	ErrCiphertextTooShort = errors.New("xcrypto: ciphertext shorter than minimum sealed length")
	ErrAuthFailed         = errors.New("xcrypto: block authentication failed")
	ErrSealerClosed       = errors.New("xcrypto: sealer is closed")
)

// Sealer encrypts and decrypts fixed-size blocks. A Sealer is safe for
// concurrent use by multiple goroutines. Seal always uses the current epoch;
// Open accepts any epoch (and the legacy format), which is what makes
// rotation lazy: blocks re-seal at the new epoch whenever they are next
// written back.
//
// Seal and Open take no lock: Seal reads the current {epoch, AEAD}
// snapshot with one atomic load, and Open finds a block's epoch AEAD in a
// table of atomic pointers. Per-epoch AEADs are derived lazily under mu and
// immutable once published. Close publishes a snapshot without an AEAD and
// clears the table under mu, so every Seal or Open that starts after Close
// returns fails with ErrSealerClosed.
type Sealer struct {
	cur   atomic.Pointer[epochAEAD]      // epoch new seals use; aead nil after Close
	aeads [256]atomic.Pointer[epochAEAD] // derived AEADs by epoch; cleared by Close

	// mu serializes derivation, SetEpoch and Close, and guards the fields
	// below.
	mu     sync.Mutex
	keyFor func(epoch uint8) [KeySize]byte // epoch subkey derivation; nil after Close
	closed bool

	// Legacy CTR+HMAC material, kept so pre-refactor ciphertexts under the
	// same master key still open (and for LegacySeal fixtures/benches).
	legacyBlock cipher.Block
	legacyMac   [KeySize]byte

	rand io.Reader
}

// epochAEAD is one key epoch's GCM instance.
type epochAEAD struct {
	epoch uint8
	aead  cipher.AEAD
}

// NewSealer returns a Sealer using the given 16-byte key. All subkeys — the
// per-epoch GCM keys and the legacy CTR/HMAC pair — are derived from it, and
// the master key itself is not retained. randSrc supplies nonces; pass nil
// for crypto/rand. Tests may inject a deterministic reader for
// reproducibility. The sealer starts at epoch 0; see SetEpoch and Keyring
// for rotation.
func NewSealer(key []byte, randSrc io.Reader) (*Sealer, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("xcrypto: key must be %d bytes, got %d", KeySize, len(key))
	}
	root := hkdf(key, "oblivjoin sealer root v2")
	legacyEnc := deriveKey(key, "enc")
	legacyMac := deriveKey(key, "mac")
	return newSealer(root, legacyEnc, legacyMac, 0, randSrc)
}

// newSealer assembles a Sealer from already-derived material. root feeds the
// per-epoch subkeys; legacyEnc/legacyMac serve the compat open path.
func newSealer(root [sha256.Size]byte, legacyEnc, legacyMac [KeySize]byte, epoch uint8, randSrc io.Reader) (*Sealer, error) {
	legacyBlock, err := aes.NewCipher(legacyEnc[:])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: %w", err)
	}
	zero(legacyEnc[:])
	if randSrc == nil {
		randSrc = rand.Reader
	}
	s := &Sealer{
		keyFor: func(e uint8) [KeySize]byte {
			var k [KeySize]byte
			sub := hkdf(root[:], fmt.Sprintf("epoch:%d", e))
			copy(k[:], sub[:])
			zero(sub[:])
			return k
		},
		legacyBlock: legacyBlock,
		legacyMac:   legacyMac,
		rand:        randSrc,
	}
	if err := s.SetEpoch(epoch); err != nil {
		return nil, err
	}
	return s, nil
}

// NewRandomSealer generates a fresh random key and returns a Sealer over it,
// alongside the key so the client can persist it. The caller owns the
// returned key bytes; the sealer keeps only derived material and zeroizes it
// on Close.
func NewRandomSealer() (*Sealer, []byte, error) {
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, nil, fmt.Errorf("xcrypto: generating key: %w", err)
	}
	s, err := NewSealer(key, nil)
	if err != nil {
		return nil, nil, err
	}
	return s, key, nil
}

// deriveKey is the legacy (format 1) subkey derivation; it must stay
// byte-for-byte stable so pre-refactor ciphertexts keep opening.
func deriveKey(master []byte, label string) [KeySize]byte {
	h := hmac.New(sha256.New, master)
	h.Write([]byte(label))
	var out [KeySize]byte
	copy(out[:], h.Sum(nil))
	return out
}

// hkdf derives a 32-byte subkey from secret bound to the info label, per
// RFC 5869 (HMAC-SHA256 extract with a zero salt, then a single expand
// block — sufficient for outputs up to one hash length).
func hkdf(secret []byte, info string) [sha256.Size]byte {
	var salt [sha256.Size]byte
	ex := hmac.New(sha256.New, salt[:])
	ex.Write(secret)
	prk := ex.Sum(nil)
	exp := hmac.New(sha256.New, prk)
	exp.Write([]byte(info))
	exp.Write([]byte{0x01})
	var out [sha256.Size]byte
	copy(out[:], exp.Sum(nil))
	zero(prk)
	return out
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// aead returns the AEAD for the given epoch: a lock-free table read once
// the epoch is derived, a derivation under mu the first time.
func (s *Sealer) aead(epoch uint8) (cipher.AEAD, error) {
	if e := s.aeads[epoch].Load(); e != nil {
		return e.aead, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.deriveLocked(epoch)
	if err != nil {
		return nil, err
	}
	return e.aead, nil
}

// deriveLocked returns the epoch's AEAD, deriving and publishing it on
// first use. Callers hold s.mu.
func (s *Sealer) deriveLocked(epoch uint8) (*epochAEAD, error) {
	if s.closed {
		return nil, ErrSealerClosed
	}
	if e := s.aeads[epoch].Load(); e != nil {
		return e, nil
	}
	k := s.keyFor(epoch)
	block, err := aes.NewCipher(k[:])
	zero(k[:])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: %w", err)
	}
	a, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: %w", err)
	}
	e := &epochAEAD{epoch: epoch, aead: a}
	s.aeads[epoch].Store(e)
	return e, nil
}

// Epoch reports the key epoch new seals are tagged with.
func (s *Sealer) Epoch() uint8 { return s.cur.Load().epoch }

// SetEpoch rotates the sealer to the given key epoch: subsequent Seals use
// the epoch's HKDF-derived subkey, while Open keeps accepting every epoch
// (and the legacy format). Rotation is therefore lazy — blocks migrate to
// the new epoch as they are rewritten — and, because the epoch byte rides
// inside the fixed-size sealed layout, invisible in the access sequence.
func (s *Sealer) SetEpoch(epoch uint8) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.deriveLocked(epoch)
	if err != nil {
		return err
	}
	s.cur.Store(e)
	return nil
}

// Close zeroizes the sealer's key material. Any further Seal/Open fails with
// ErrSealerClosed. Close is idempotent.
func (s *Sealer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.cur.Store(&epochAEAD{epoch: s.cur.Load().epoch})
	for e := range s.aeads {
		s.aeads[e].Store(nil)
	}
	s.keyFor = nil
	s.legacyBlock = nil
	zero(s.legacyMac[:])
	return nil
}

// SealedLen returns the ciphertext length for a plaintext of n bytes.
func SealedLen(n int) int { return n + Overhead }

// Seal encrypts plaintext under a fresh random nonce at the current epoch.
// Two calls with the same plaintext return different ciphertexts.
func (s *Sealer) Seal(plaintext []byte) ([]byte, error) {
	return s.SealTo(nil, plaintext)
}

// SealTo appends the sealed block to dst (which may be nil) and returns the
// extended slice, reusing dst's capacity when it suffices — the allocation-
// free path the ORAM write-back loops use. plaintext must not alias dst's
// spare capacity.
func (s *Sealer) SealTo(dst, plaintext []byte) ([]byte, error) {
	cur := s.cur.Load()
	if cur.aead == nil {
		return nil, ErrSealerClosed
	}
	off := len(dst)
	need := off + SealedLen(len(plaintext))
	if cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+headerSize+NonceSize]
	hdr := dst[off : off+headerSize]
	hdr[0] = FormatGCM
	hdr[1] = cur.epoch
	hdr[2], hdr[3] = 0, 0
	nonce := dst[off+headerSize : off+headerSize+NonceSize]
	if _, err := io.ReadFull(s.rand, nonce); err != nil {
		return nil, fmt.Errorf("xcrypto: reading nonce: %w", err)
	}
	return cur.aead.Seal(dst, nonce, plaintext, hdr), nil
}

// Open verifies and decrypts a block produced by Seal (any epoch) or by the
// legacy CTR+HMAC construction.
func (s *Sealer) Open(sealed []byte) ([]byte, error) {
	return s.OpenTo(nil, sealed)
}

// OpenTo appends the verified plaintext to dst (which may be nil) and
// returns the extended slice, reusing dst's capacity when it suffices.
// sealed must not alias dst's spare capacity.
func (s *Sealer) OpenTo(dst, sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, ErrCiphertextTooShort
	}
	// Current format first: the header is authenticated, so a block that
	// merely *looks* like format 2 but isn't falls through to the legacy
	// trial (a legacy IV starts with 0x02 0x?? 0x00 0x00 once in ~2^24
	// random draws; both paths authenticate, so the trial is safe).
	if sealed[0] == FormatGCM && sealed[2] == 0 && sealed[3] == 0 {
		out, err := s.openGCM(dst, sealed)
		if err == nil {
			return out, nil
		}
		if err != ErrAuthFailed {
			return nil, err
		}
	}
	return s.openLegacy(dst, sealed)
}

func (s *Sealer) openGCM(dst, sealed []byte) ([]byte, error) {
	aead, err := s.aead(sealed[1])
	if err != nil {
		return nil, err
	}
	hdr := sealed[:headerSize]
	nonce := sealed[headerSize : headerSize+NonceSize]
	ct := sealed[headerSize+NonceSize:]
	off := len(dst)
	need := off + len(ct) - TagSize
	if cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	out, err := aead.Open(dst, nonce, ct, hdr)
	if err != nil {
		return nil, ErrAuthFailed
	}
	return out, nil
}

// openLegacy verifies and decrypts a format-1 (CTR+HMAC) block.
func (s *Sealer) openLegacy(dst, sealed []byte) ([]byte, error) {
	s.mu.Lock()
	block := s.legacyBlock
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSealerClosed
	}
	if block == nil {
		return nil, ErrAuthFailed
	}
	body := sealed[:len(sealed)-TagSize]
	tag := sealed[len(sealed)-TagSize:]
	want := s.legacyTag(body)
	if !hmac.Equal(tag, want[:TagSize]) {
		return nil, ErrAuthFailed
	}
	iv := body[:IVSize]
	ct := body[IVSize:]
	off := len(dst)
	need := off + len(ct)
	if cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	cipher.NewCTR(block, iv).XORKeyStream(dst[off:], ct)
	return dst, nil
}

// LegacySeal encrypts plaintext in the pre-rotation format-1 layout
// (AES-CTR under a fresh random IV, truncated HMAC-SHA256 tag). It exists
// for compatibility fixtures, the cross-version fuzz corpus, and the crypto
// bench's old-vs-new comparison; production writes always use Seal.
func (s *Sealer) LegacySeal(plaintext []byte) ([]byte, error) {
	s.mu.Lock()
	block := s.legacyBlock
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSealerClosed
	}
	if block == nil {
		return nil, errors.New("xcrypto: sealer has no legacy key material")
	}
	out := make([]byte, IVSize+len(plaintext)+TagSize)
	iv := out[:IVSize]
	if _, err := io.ReadFull(s.rand, iv); err != nil {
		return nil, fmt.Errorf("xcrypto: reading IV: %w", err)
	}
	ct := out[IVSize : IVSize+len(plaintext)]
	cipher.NewCTR(block, iv).XORKeyStream(ct, plaintext)
	tag := s.legacyTag(out[:IVSize+len(plaintext)])
	copy(out[IVSize+len(plaintext):], tag[:TagSize])
	return out, nil
}

func (s *Sealer) legacyTag(data []byte) []byte {
	s.mu.Lock()
	mac := s.legacyMac
	s.mu.Unlock()
	h := hmac.New(sha256.New, mac[:])
	h.Write(data)
	return h.Sum(nil)
}
