package store

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/wcet"
)

// codecs are the artifact decoders a store read feeds with untrusted bytes,
// each paired with its encoder.
var codecs = map[Kind]func([]byte) ([]byte, error){
	KindSim: func(b []byte) ([]byte, error) {
		r, err := DecodeSim(b)
		if err != nil {
			return nil, err
		}
		return EncodeSim(r), nil
	},
	KindProfile: func(b []byte) ([]byte, error) {
		p, err := DecodeProfile(b)
		if err != nil {
			return nil, err
		}
		return EncodeProfile(p), nil
	},
	KindWCET: func(b []byte) ([]byte, error) {
		r, err := DecodeWCET(b)
		if err != nil {
			return nil, err
		}
		return EncodeWCET(r), nil
	},
	KindAlloc: func(b []byte) ([]byte, error) {
		a, err := DecodeAlloc(b)
		if err != nil {
			return nil, err
		}
		return EncodeAlloc(a), nil
	},
}

// FuzzDecode: no bytes may panic the entry parser or an artifact decoder,
// and a payload that decodes must re-encode to bytes that decode and
// re-encode to themselves. Every decoder reads the input as a payload, and
// an input that parses as an entry also has its payload decoded as the
// entry's kind.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSim(&sim.Result{Cycles: 1234, Instrs: 567, CacheHits: 8, CacheMisses: 9, ExitCode: 3}))
	f.Add(EncodeProfile(&sim.Profile{
		ByObject:     map[string]*sim.ObjectProfile{"main": {Fetches: 10, ByWidth: [3]uint64{0, 10, 0}}},
		MinStackAddr: 0x30_0000,
		Result:       &sim.Result{Cycles: 99},
	}))
	wres := &wcet.Result{WCET: 4321, PerFunction: map[string]uint64{"main": 4321}, Witness: &wcet.Witness{
		FuncRuns:       map[string]uint64{"main": 1},
		BlockCounts:    map[string][]uint64{"main": {1, 4}},
		EdgeCounts:     map[string][]wcet.EdgeCount{"main": {{From: 0, To: 1, Taken: true, Count: 4}}},
		ObjectAccesses: map[string]*wcet.AccessCounts{"a": {Fetches: 2, Data: map[uint8]uint64{4: 8}}},
	}}
	f.Add(EncodeWCET(wres))
	alloc := EncodeAlloc(&AllocArtifact{InSPM: map[string]bool{"a": true}, Benefit: 1.5, Used: 128, Iterations: 2, Converged: true})
	f.Add(alloc)
	f.Add(append(header(KindAlloc, alloc), alloc...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, kind, ok := parseEntry(raw)
		if ok {
			if _, live := codecs[kind]; !live {
				t.Fatalf("parseEntry accepted kind %v", kind)
			}
			if !bytes.Equal(append(header(kind, payload), payload...), raw) {
				t.Fatal("parseEntry accepted an entry its writer would not produce")
			}
			checkStable(t, kind, payload)
		}
		for kind := range codecs {
			checkStable(t, kind, raw)
		}
	})
}

// checkStable decodes b as kind; if that succeeds, the re-encoding must
// decode and re-encode to itself.
func checkStable(t *testing.T, kind Kind, b []byte) {
	once, err := codecs[kind](b)
	if err != nil {
		return
	}
	twice, err := codecs[kind](once)
	if err != nil {
		t.Fatalf("%v: re-encoded payload does not decode: %v", kind, err)
	}
	if !bytes.Equal(once, twice) {
		t.Fatalf("%v: re-encoding is not stable:\n%x\n%x", kind, once, twice)
	}
}
