package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"rcast/internal/scenario"
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

// FuzzSweepRequest drives the sweeps API's input path with arbitrary
// bodies: ParseSweepRequest → Cells must never panic, no accepted sweep
// may expand past scenario.MaxGridCells, and every cell's Key must be the
// canonical key of the job request the fleet relays for it — its Req sent
// as JSON, parsed and resolved on the worker side.
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []string{
		quickSweepBody,
		// Shapes of the quick suite asked as sweeps (Table 1, Fig. 5, the
		// rate sweep, A1, A3, A8, A9, A10).
		`{"schemes":["802.11","ODPM","Rcast"],"rates":[0.4],"pauses_sec":[75],"nodes":20,"field_w":600,"field_h":300,"connections":4,"duration_sec":30,"seed":1}`,
		`{"schemes":["802.11","ODPM","Rcast"],"rates":[0.4,2],"pauses_sec":[75,-1],"nodes":20,"connections":4,"duration_sec":30}`,
		`{"schemes":["802.11","ODPM","Rcast"],"rates":[0.2,0.4,1,2],"pauses_sec":[75,-1],"nodes":20,"duration_sec":30}`,
		`{"schemes":["Rcast"],"policies":["rcast","sender-id","battery","mobility","combined"],"rates":[0.4],"pauses_sec":[75]}`,
		`{"schemes":["Rcast"],"rates":[2],"gossip_fanouts":[0,3],"pauses_sec":[75]}`,
		`{"schemes":["802.11","PSM","ODPM","Rcast"],"fault_presets":["","crash","loss"],"rates":[0.4],"pauses_sec":[75]}`,
		`{"schemes":["PSM","Rcast"],"channels":["disk","shadowing","fading"],"mobilities":["waypoint","gauss-markov","group"],"shadow_sigma_db":4}`,
		`{"schemes":["PSM","Rcast"],"tx_powers_dbm":[-6,-3,0,3],"gossip_fanouts":[3],"routing":"AODV","battery_joules":20}`,
		// A small multi-axis body touching every axis.
		`{"schemes":["PSM-no-overhear","Rcast"],"rates":[0.5,1],"pauses_sec":[0,-1],"fault_presets":["none","partition"],"gossip_fanouts":[0,1.5],"channels":["","fading"],"mobilities":["","group"],"policies":["","battery"],"tx_powers_dbm":[0,-40],"static":true,"reps":2,"group_size":3}`,
		`{"schemes":[]}`,
		`{"schemes":["Rcast"],"rates":[-1]}`,
		`{"schemes":["Rcast"],"warp":1}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseSweepRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		cells, err := req.Cells()
		if err != nil {
			return
		}
		if len(cells) > scenario.MaxGridCells {
			t.Fatalf("accepted a sweep of %d cells, over the %d-cell cap", len(cells), scenario.MaxGridCells)
		}
		for _, c := range cells {
			relayed, err := json.Marshal(c.Req)
			if err != nil {
				t.Fatalf("cell %d: marshal %+v: %v", c.Index, c.Req, err)
			}
			jr, err := ParseJobRequest(bytes.NewReader(relayed))
			if err != nil {
				t.Fatalf("cell %d: relayed request %s does not parse: %v", c.Index, relayed, err)
			}
			cfg, reps, err := jr.Config()
			if err != nil {
				t.Fatalf("cell %d: relayed request %s does not resolve: %v", c.Index, relayed, err)
			}
			key, err := cfg.CanonicalKey(reps)
			if err != nil {
				t.Fatalf("cell %d: relayed request %s has no canonical key: %v", c.Index, relayed, err)
			}
			if key != c.Key {
				t.Fatalf("cell %d: key %s, but its relayed request %s resolves to %s", c.Index, c.Key, relayed, key)
			}
		}
	})
}
