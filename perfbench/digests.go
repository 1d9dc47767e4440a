package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"rcast/internal/scenario"
)

// part is one named piece of a workload's output; outputs are compared
// part by part so a mismatch names the first field that differs.
type part struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
	data []byte
}

func newPart(name string, data []byte) part {
	sum := sha256.Sum256(data)
	return part{Name: name, Hash: hex.EncodeToString(sum[:8]), data: data}
}

// digestOf condenses parts into one digest for the run record.
func digestOf(parts []part) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%s\x00%s\n", p.Name, p.Hash)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// resultParts splits a dense_400 Result into its fields, in declaration
// order, each as its JSON encoding.
func resultParts(r *scenario.Result) []part {
	v := reflect.ValueOf(r).Elem()
	parts := make([]part, 0, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		data, err := json.Marshal(v.Field(i).Interface())
		if err != nil {
			data = []byte(err.Error())
		}
		parts = append(parts, newPart(v.Type().Field(i).Name, data))
	}
	return parts
}

// reportParts splits a quick_suite report at its "== " section headers,
// naming each part by its header line.
func reportParts(report []byte) []part {
	var parts []part
	name, start := "preamble", 0
	for off := 0; off < len(report); {
		end := bytes.IndexByte(report[off:], '\n')
		next := off + end + 1
		if end < 0 {
			end, next = len(report)-off, len(report)
		}
		if line := report[off : off+end]; bytes.HasPrefix(line, []byte("== ")) {
			if off > start {
				parts = append(parts, newPart(name, report[start:off]))
			}
			name, start = string(line), off
		}
		off = next
	}
	return append(parts, newPart(name, report[start:]))
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps an input key (see inputKey) to the expected output
// parts at full size.
func recordedDigests() (map[string][]part, error) {
	var m map[string][]part
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// checker compares every output of a run with the recorded parts for the
// run's input or, when none are recorded, with the run's first output. It
// reports the first mismatch it sees to log and counts all of them.
type checker struct {
	want     []part
	first    []part
	seen     []part // latest output, for --record-digests
	log      io.Writer
	reported bool
}

func (c *checker) fail(format string, args ...any) {
	if !c.reported {
		c.reported = true
		fmt.Fprintf(c.log, "CHECK FAILED: "+format+"\n", args...)
	}
}

// check reports whether parts match the expectation.
func (c *checker) check(parts []part) bool {
	c.seen = parts
	if c.want != nil {
		if name, ok := firstDiff(c.want, parts); !ok {
			c.fail("output differs from the recorded digest at %s", name)
			return false
		}
		return true
	}
	if c.first == nil {
		c.first = parts
		return true
	}
	if name, ok := firstDiff(c.first, parts); !ok {
		c.fail("output differs from this run's first output at %s%s", name, byteDiff(c.first, parts, name))
		return false
	}
	return true
}

// firstDiff returns the name of the first part that differs, and false,
// or "", true when want and got agree.
func firstDiff(want, got []part) (string, bool) {
	for i := range want {
		if i >= len(got) {
			return want[i].Name + " (missing)", false
		}
		if want[i].Name != got[i].Name || want[i].Hash != got[i].Hash {
			return want[i].Name, false
		}
	}
	if len(got) > len(want) {
		return got[len(want)].Name + " (unexpected)", false
	}
	return "", true
}

// byteDiff locates the first differing byte of the named part when both
// outputs still hold their bytes.
func byteDiff(a, b []part, name string) string {
	var x, y []byte
	for _, p := range a {
		if p.Name == name {
			x = p.data
		}
	}
	for _, p := range b {
		if p.Name == name {
			y = p.data
		}
	}
	n := min(len(x), len(y))
	i := 0
	for i < n && x[i] == y[i] {
		i++
	}
	if x == nil || y == nil {
		return ""
	}
	lo := max(0, i-20)
	return fmt.Sprintf(", byte %d: %q vs %q", i, x[lo:min(len(x), i+20)], y[lo:min(len(y), i+20)])
}
