package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"lacc/internal/mem"
)

func sampleStreams() [][]mem.Access {
	return [][]mem.Access{
		{
			{Kind: mem.Read, Addr: 1 << 22, Gap: 3},
			{Kind: mem.Write, Addr: 1<<22 + 8},
			{Kind: mem.Barrier, Addr: 1},
		},
		{
			{Kind: mem.Lock, Addr: 42, Gap: 100},
			{Kind: mem.Read, Addr: 1 << 30},
			{Kind: mem.Unlock, Addr: 42},
		},
		nil, // an idle core
	}
}

func TestFileRoundTrip(t *testing.T) {
	in := sampleStreams()
	var buf bytes.Buffer
	if err := WriteFile(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip changed core count: %d -> %d", len(in), len(out))
	}
	for c := range in {
		if len(out[c]) != len(in[c]) {
			t.Fatalf("core %d: %d -> %d accesses", c, len(in[c]), len(out[c]))
		}
		for i := range in[c] {
			if out[c][i] != in[c][i] {
				t.Fatalf("core %d access %d: %+v -> %+v", c, i, in[c][i], out[c][i])
			}
		}
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	f := func(kinds []byte, gaps []uint32, addrs []uint64) bool {
		n := len(kinds)
		if len(gaps) < n {
			n = len(gaps)
		}
		if len(addrs) < n {
			n = len(addrs)
		}
		accs := make([]mem.Access, n)
		for i := 0; i < n; i++ {
			accs[i] = mem.Access{
				Kind: mem.AccessKind(kinds[i] % 5),
				Gap:  gaps[i],
				Addr: mem.Addr(addrs[i] & (1<<48 - 1)), // 48-bit addresses
			}
		}
		var buf bytes.Buffer
		if err := WriteFile(&buf, [][]mem.Access{accs}); err != nil {
			return false
		}
		out, err := ReadFile(&buf)
		if err != nil || len(out) != 1 || len(out[0]) != n {
			return false
		}
		for i := range accs {
			if out[0][i] != accs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFileRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"NOTMAGIC",
		Magic,                  // truncated after magic
		Magic + "\x01",         // core count but no stream
		Magic + "\x01\x01\x09", // invalid kind 9
	}
	for i, c := range cases {
		if _, err := ReadFile(strings.NewReader(c)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: err = %v, want ErrBadTrace", i, err)
		}
	}
}

// TestReadFileRejectsTrailingBytes: a valid file followed by anything —
// even a single NUL — must fail, not decode cleanly. Silent acceptance
// masked concatenation and truncated-count corruption.
func TestReadFileRejectsTrailingBytes(t *testing.T) {
	var valid bytes.Buffer
	if err := WriteFile(&valid, sampleStreams()); err != nil {
		t.Fatal(err)
	}
	for name, tail := range map[string][]byte{
		"single NUL":         {0x00},
		"garbage":            []byte("xyz"),
		"concatenated trace": valid.Bytes(),
	} {
		data := append(append([]byte{}, valid.Bytes()...), tail...)
		if _, err := ReadFile(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: err = %v, want ErrBadTrace", name, err)
		}
	}
	if _, err := ReadFile(bytes.NewReader(valid.Bytes())); err != nil {
		t.Fatalf("unmodified file: %v", err)
	}
}

func TestReadFileRejectsHugeCoreCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}) // uvarint ~4G cores
	if _, err := ReadFile(&buf); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
}

// TestRecordAndReplay records generators the way lacc-trace does (a
// spilled build), reads the file back and replays it.
func TestRecordAndReplay(t *testing.T) {
	gens := []GenFunc{
		func(e *Emitter) {
			for i := 0; i < 100; i++ {
				e.Compute(2)
				e.Read(mem.Addr(1<<22 + i*8))
			}
		},
		func(e *Emitter) { e.Write(1 << 23) },
	}
	path := filepath.Join(t.TempDir(), "rec.lacctrc")
	if _, err := BuildSpilledCorpus(gens, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := ReadFile(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded[0]) != 100 || len(recorded[1]) != 1 {
		t.Fatalf("recorded %d/%d accesses", len(recorded[0]), len(recorded[1]))
	}
	if recorded[0][0].Gap != 2 {
		t.Fatalf("gap not preserved: %+v", recorded[0][0])
	}
	replay := FromSlices(recorded)
	a, ok := replay[0].Next()
	if !ok || a != recorded[0][0] {
		t.Fatalf("replay diverged: %+v vs %+v", a, recorded[0][0])
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<62 - 1, -(1 << 62)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip %d -> %d", v, got)
		}
	}
}

func TestFileCompression(t *testing.T) {
	// Sequential array walks should encode far below the naive 17 bytes per
	// record.
	accs := make([]mem.Access, 10000)
	for i := range accs {
		accs[i] = mem.Access{Kind: mem.Read, Addr: mem.Addr(1<<22 + i*8), Gap: 1}
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, [][]mem.Access{accs}); err != nil {
		t.Fatal(err)
	}
	if perRec := float64(buf.Len()) / float64(len(accs)); perRec > 4 {
		t.Errorf("sequential walk encodes at %.1f bytes/record, want <= 4", perRec)
	}
}

// TestOpenSpilledCorpusMatchesReadFile: a trace file opened for streaming
// replays every core's stream exactly as ReadFile decodes it, and a
// malformed file fails to open with exactly ReadFile's error, so callers
// switching from one to the other keep their output.
func TestOpenSpilledCorpusMatchesReadFile(t *testing.T) {
	var valid bytes.Buffer
	if err := WriteFile(&valid, sampleStreams()); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"valid":         valid.Bytes(),
		"empty":         nil,
		"bad magic":     []byte("NOTMAGIC"),
		"no stream":     []byte(Magic + "\x01"),
		"bad kind":      []byte(Magic + "\x01\x01\x09"),
		"truncated":     valid.Bytes()[:valid.Len()-2],
		"trailing byte": append(append([]byte{}, valid.Bytes()...), 0),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.trace")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			want, wantErr := ReadFile(bytes.NewReader(data))
			sc, err := OpenSpilledCorpus(path)
			if wantErr != nil || err != nil {
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("open error %v, ReadFile error %v", err, wantErr)
				}
				return
			}
			if sc.Cores() != len(want) {
				t.Fatalf("%d cores, ReadFile %d", sc.Cores(), len(want))
			}
			for c, s := range sc.Streams() {
				var got []mem.Access
				for a, ok := s.Next(); ok; a, ok = s.Next() {
					got = append(got, a)
				}
				s.Close()
				if len(got) != len(want[c]) || sc.Accesses(c) != uint64(len(want[c])) {
					t.Fatalf("core %d: %d accesses (indexed %d), ReadFile %d", c, len(got), sc.Accesses(c), len(want[c]))
				}
				for i := range got {
					if got[i] != want[c][i] {
						t.Fatalf("core %d access %d: %+v, ReadFile %+v", c, i, got[i], want[c][i])
					}
				}
			}
		})
	}
}
