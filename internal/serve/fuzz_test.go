package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobRequest drives the jobs API's input path with arbitrary bodies:
// ParseJobRequest → Config → CanonicalKey must never panic, and an
// accepted request must be a fixed point of its own JSON form —
// re-marshalling the parsed request and parsing it again yields the same
// canonical key, so a request relayed by the fleet addresses the same
// cache entry as the original.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		quickBody,
		`{"scheme":"802.11"}`,
		`{"scheme":"ODPM","routing":"AODV","nodes":30,"pause_sec":0,"seed":-4}`,
		`{"scheme":"Rcast","policy":"battery","battery_joules":500,"tx_power_dbm":-3}`,
		`{"scheme":"Rcast","channel":"fading","mobility":"gauss-markov","fault_preset":"all"}`,
		`{"scheme":"Rcast","mobility":"rpgm","group_size":4,"group_radius_m":50,"min_speed":0,"max_speed":2}`,
		`{"scheme":"Rcast","channel":"shadowing","shadow_sigma_db":4,"gossip_fanout":1.5,"reps":3}`,
		`{"scheme":"Rcast","timeout_sec":2,"trace":true,"audit":true}`,
		`{"scheme":"Rcast","warp":9}`,
		`{"scheme":"Rcast"} {}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseJobRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		cfg, reps, err := req.Config()
		if err != nil {
			return
		}
		key, err := cfg.CanonicalKey(reps)
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal accepted request %+v: %v", req, err)
		}
		req2, err := ParseJobRequest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-parse of %s: %v", again, err)
		}
		cfg2, reps2, err := req2.Config()
		if err != nil {
			t.Fatalf("re-parsed %s no longer resolves: %v", again, err)
		}
		key2, err := cfg2.CanonicalKey(reps2)
		if err != nil {
			t.Fatalf("re-parsed %s has no canonical key: %v", again, err)
		}
		if key != key2 {
			t.Fatalf("canonical key moved across a JSON round trip:\n%s\n→ %s\n%s → %s", body, key, again, key2)
		}
	})
}
