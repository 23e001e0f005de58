package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// frameSnapshot wraps a payload in the binary snapshot framing (magic,
// version, zero flags, length, CRC-32C), as encodeBinarySnapshot does.
func frameSnapshot(payload []byte) []byte {
	out := append([]byte(binMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint16(out[4:], binVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[4:], castagnoli))
}

// FuzzBinarySnapshot feeds arbitrary bytes to the binary snapshot decoder,
// which reads disk files on recovery and network bodies on replica
// bootstrap. Each input is decoded twice: as a whole file, and as a payload
// wrapped in a valid frame, so the payload parser is reached past the CRC.
// Invariants: no panic, and any input the decoder accepts re-encodes to
// exactly its own bytes.
func FuzzBinarySnapshot(f *testing.F) {
	// Small seeds: the fuzzer minimises every input that finds new
	// coverage, and minimising a many-kilobyte document stalls a short run.
	img := &config.Image{Name: "fuzz", File: "f.png"}
	for i, r := range []geom.Region{workload.BoxRegion(0, 0, 1, 1), workload.BoxRegion(2, 2, 3, 4)} {
		if err := img.AddRegion(fmt.Sprintf("r%d", i), "", "#fff", r); err != nil {
			f.Fatal(err)
		}
	}
	regionsOnly := encodeBinarySnapshot(img)
	if err := img.ComputeRelations(true); err != nil {
		f.Fatal(err)
	}
	f.Add(regionsOnly)
	f.Add(encodeBinarySnapshot(img))
	f.Add(regionsOnly[binHeaderLen : len(regionsOnly)-4])
	f.Add(regionsOnly[:len(regionsOnly)-5])
	f.Add([]byte(binMagic))
	f.Add([]byte{})
	flagged := bytes.Clone(regionsOnly)
	flagged[6] = 1
	f.Add(encodeWithCRC(flagged))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frameSnapshot(data)} {
			img, err := decodeBinarySnapshot(in)
			if err != nil {
				continue
			}
			if got := encodeBinarySnapshot(img); !bytes.Equal(got, in) {
				t.Fatalf("accepted snapshot of %d bytes re-encodes to %d different bytes", len(in), len(got))
			}
		}
	})
}
