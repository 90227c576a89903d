package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// expectation is what one workload produces for one seed: a digest of its
// canonical output plus named simulated values, which repeat exactly.
type expectation struct {
	Digest string             `json:"digest"`
	Values map[string]float64 `json:"values,omitempty"`
}

// expectedJSON maps workload -> seed -> expectation, recorded with -record
// from a commit whose outputs the golden tests pin.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]map[string]expectation, error) {
	m := map[string]map[string]expectation{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// verify compares got with the recorded expectation for (workload, seed).
// recorded is false when the seed has none.
func verify(workload string, seed uint64, got expectation) (ok, recorded bool) {
	m, err := loadExpected()
	if err != nil {
		return false, true
	}
	want, recorded := m[workload][strconv.FormatUint(seed, 10)]
	if !recorded {
		return false, false
	}
	if want.Digest != got.Digest || len(want.Values) != len(got.Values) {
		return false, true
	}
	for k, v := range want.Values {
		if got.Values[k] != v {
			return false, true
		}
	}
	return true, true
}

// recordExpected runs one set-up and pass of the workload for each seed
// below n and writes the outputs into perfbench/expected.json under root.
func recordExpected(root, dir, name string, n int) error {
	m, err := loadExpected()
	if err != nil {
		return err
	}
	seeds := map[string]expectation{}
	for seed := uint64(0); seed < uint64(n); seed++ {
		w, err := workloadFor(name, seed, dir)
		if err != nil {
			return err
		}
		r, ok := w.(recorder)
		if !ok {
			return fmt.Errorf("workload %s records no expected outputs", name)
		}
		if err := w.setup(); err != nil {
			return err
		}
		p := w.pass(nil, 0)
		w.close()
		if p.failed != 0 {
			return fmt.Errorf("seed %d: %d failed operations", seed, p.failed)
		}
		seeds[strconv.FormatUint(seed, 10)] = r.expectation()
		fmt.Fprintf(os.Stderr, "%s seed %d recorded\n", name, seed)
	}
	m[name] = seeds
	b, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "expected.json"), append(b, '\n'), 0o644)
}

// recorder is a workload whose output has an expectation.
type recorder interface {
	expectation() expectation
}
