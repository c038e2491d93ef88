package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// FuzzDecodeFrame holds the frame decoder to what an object file may
// hold after a torn write, a bad disk or a hand edit: for any bytes
// under a fixed key and version, decodeFrame returns an error or an
// Entry and never panics; an Entry it accepts has a body whose sha256
// is its ContentHash, and re-encoding the Entry with encodeFrame
// decodes to an equal one. The seeds are frames encodeFrame writes,
// with no artifact label, a registry name and a scenario label, and
// truncated and bit-flipped copies of each.
func FuzzDecodeFrame(f *testing.F) {
	key, version := keyFor("fuzz"), "v1"
	body := []byte("| link | pJ/bit |\n| ---- | ------ |\n| on-chip | 5.6 |\n")
	for _, meta := range []Meta{
		{},
		{Artifact: "table1"},
		{Artifact: "scenario:" + key},
	} {
		frame := encodeFrame(key, version, body, meta)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		f.Add(frame[:len(magic)+len(frame)/4])
		for _, at := range []int{len(magic) + 2, len(frame) - len(body) - 1, len(frame) - 1} {
			flipped := bytes.Clone(frame)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		e, err := decodeFrame(key, version, blob)
		if err != nil {
			return
		}
		if sum := sha256.Sum256(e.Body); hex.EncodeToString(sum[:]) != e.ContentHash {
			t.Fatalf("accepted a body whose sha256 is %x under content hash %q", sum, e.ContentHash)
		}
		again, err := decodeFrame(key, version, encodeFrame(key, version, e.Body, Meta{}))
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if !bytes.Equal(again.Body, e.Body) || again.ContentHash != e.ContentHash {
			t.Fatalf("re-encoded entry decodes to %+v, want %+v", again, e)
		}
	})
}
