package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestRecordPin pins the exact bytes `lacc-trace record` writes. Each
// SHA-256 was recorded when record still drained in-memory streams before
// encoding, so any change to how record produces its trace must reproduce
// those files bit for bit. CI's trace-tool step checks the streamcluster
// file against the same pin.
func TestRecordPin(t *testing.T) {
	pins := []struct{ workload, sha256 string }{
		{"streamcluster", "83220b59d92856d2c752798a78603c842160b0c21d8a9cfc18fedc05068b2d5c"},
		{"radix", "f771abfcb64b527192ef421db2c10806ea81f81f8c5f1d2d8da8bac1e23728e8"},
		{"dedup", "0c80a55d194dd0ab54e535620237ac16d96615184363c3b136af951548613f14"},
	}
	for _, p := range pins {
		out := filepath.Join(t.TempDir(), p.workload+".trace")
		record([]string{"-workload", p.workload, "-cores", "16", "-scale", "0.2", "-seed", "4", "-o", out})
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != p.sha256 {
			t.Errorf("%s: recorded trace sha256 %s, want %s", p.workload, got, p.sha256)
		}
	}
}
