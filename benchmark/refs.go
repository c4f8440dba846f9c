package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"github.com/zhuge-project/zhuge/internal/experiments"
)

// refsFile holds the recorded output hashes of campus and longcall per
// seed, in fingerprint line order (first 4 bytes of each line's sha256).
// Regenerate it with -record after an intended model change.
const refsFile = "benchmark/refs.json"

// goldenFile is the repository's committed table fingerprints at
// sweepSeed, the reference of every sweep run.
const goldenFile = "internal/experiments/testdata/golden_tables.json"

type refStore map[string]map[string][]string // workload -> seed -> hashes

func loadRefs(root string) (refStore, error) {
	raw, err := os.ReadFile(filepath.Join(root, refsFile))
	if errors.Is(err, fs.ErrNotExist) {
		return refStore{}, nil
	}
	if err != nil {
		return nil, err
	}
	r := refStore{}
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", refsFile, err)
	}
	return r, nil
}

// reference returns the recorded hashes for a workload and seed. Sweep
// reads the committed goldens, in registry order; an experiment missing
// there gets an empty hash, which fails its check.
func (r refStore) reference(root, workload string, seed int64) ([]string, bool, error) {
	if workload == "sweep" {
		raw, err := os.ReadFile(filepath.Join(root, goldenFile))
		if err != nil {
			return nil, false, err
		}
		golden := map[string]string{}
		if err := json.Unmarshal(raw, &golden); err != nil {
			return nil, false, fmt.Errorf("%s: %w", goldenFile, err)
		}
		var want []string
		for _, e := range experiments.All() {
			want = append(want, golden[e.ID])
		}
		return want, true, nil
	}
	want, ok := r[workload][strconv.FormatInt(seed, 10)]
	return want, ok, nil
}

// save writes the store with one line per (workload, seed).
func (r refStore) save(root string) error {
	var b bytes.Buffer
	b.WriteString("{")
	for i, w := range sortedKeys(r) {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n %q: {", w)
		seeds := sortedKeys(r[w])
		sort.Slice(seeds, func(i, j int) bool {
			a, _ := strconv.ParseInt(seeds[i], 10, 64)
			b, _ := strconv.ParseInt(seeds[j], 10, 64)
			return a < b
		})
		for j, seed := range seeds {
			h, err := json.Marshal(r[w][seed])
			if err != nil {
				return err
			}
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n  %q: %s", seed, h)
		}
		b.WriteString("\n }")
	}
	b.WriteString("\n}\n")
	return os.WriteFile(filepath.Join(root, refsFile), b.Bytes(), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// check compares outputs with the wanted hashes, position by position.
// Every output is one attempted operation; a missing or extra output
// counts as failed. It returns one message per failure, naming the
// workload and the experiment or flow.
func check(workload string, outs []output, want []string) (attempted, failed int, msgs []string) {
	n := len(outs)
	if len(want) > n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		attempted++
		switch {
		case i >= len(outs):
			failed++
			msgs = append(msgs, fmt.Sprintf("%s: output %d missing, want %s", workload, i, want[i]))
		case i >= len(want) || outs[i].hash != want[i]:
			w := "none"
			if i < len(want) {
				w = want[i]
			}
			failed++
			msgs = append(msgs, fmt.Sprintf("%s: %s: fingerprint %s, want %s", workload, outs[i].name, outs[i].hash, w))
		}
	}
	return attempted, failed, msgs
}

func hashes(outs []output) []string {
	h := make([]string, len(outs))
	for i, o := range outs {
		h[i] = o.hash
	}
	return h
}
