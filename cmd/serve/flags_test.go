package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseFlagsModeValidation drives the whole flag surface through
// parseFlags: valid combinations for each mode parse cleanly, and every
// contradictory fleet-mode combination is rejected with an error naming
// the offending flag — main turns any error into exit status 2, so this
// table is the exit-2 contract.
func TestParseFlagsModeValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = must parse
	}{
		{name: "default single", args: nil},
		{name: "single with reload", args: []string{"-reload-every", "5s", "-generations", "6"}},
		{name: "shard", args: []string{"-mode", "shard", "-shards", "4", "-shard-index", "2"}},
		{name: "shard with build flags", args: []string{"-mode", "shard", "-shards", "2", "-shard-index", "0", "-seed", "7", "-scale", "0.1"}},
		{name: "router", args: []string{"-mode", "router", "-shard-addrs", "localhost:9001,localhost:9002"}},
		{name: "router with matching shards", args: []string{"-mode", "router", "-shards", "2", "-shard-addrs", "a:1,b:2", "-flip-every", "30s"}},
		{name: "router with serving flags", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-max-inflight", "64", "-request-timeout", "3s"}},

		{name: "unknown mode", args: []string{"-mode", "mesh"}, wantErr: `invalid -mode "mesh"`},
		{name: "single with shards", args: []string{"-shards", "4"}, wantErr: "-shards contradicts -mode single"},
		{name: "single with shard-index", args: []string{"-shard-index", "0"}, wantErr: "-shard-index contradicts -mode single"},
		{name: "single with shard-addrs", args: []string{"-shard-addrs", "a:1"}, wantErr: "-shard-addrs contradicts -mode single"},
		{name: "single with flip-every", args: []string{"-flip-every", "1m"}, wantErr: "-flip-every contradicts -mode single"},
		{name: "shard with timer reload", args: []string{"-mode", "shard", "-shards", "2", "-shard-index", "0", "-reload-every", "5s"}, wantErr: "-reload-every contradicts -mode shard"},
		{name: "shard with shard-addrs", args: []string{"-mode", "shard", "-shards", "2", "-shard-index", "0", "-shard-addrs", "a:1"}, wantErr: "-shard-addrs contradicts -mode shard"},
		{name: "shard with flip-every", args: []string{"-mode", "shard", "-shards", "2", "-shard-index", "0", "-flip-every", "1m"}, wantErr: "-flip-every contradicts -mode shard"},
		{name: "shard without fleet size", args: []string{"-mode", "shard", "-shard-index", "0"}, wantErr: "invalid -shards"},
		{name: "shard index out of range", args: []string{"-mode", "shard", "-shards", "2", "-shard-index", "2"}, wantErr: "invalid -shard-index"},
		{name: "shard index missing", args: []string{"-mode", "shard", "-shards", "2"}, wantErr: "invalid -shard-index"},
		{name: "router without addrs", args: []string{"-mode", "router"}, wantErr: "router mode needs -shard-addrs"},
		{name: "router with seed", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-seed", "7"}, wantErr: "-seed contradicts -mode router"},
		{name: "router with scale", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-scale", "0.5"}, wantErr: "-scale contradicts -mode router"},
		{name: "router with cache", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-cache", "16"}, wantErr: "-cache contradicts -mode router"},
		{name: "router with reload gate", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-reload-max-churn", "0.5"}, wantErr: "-reload-max-churn contradicts -mode router"},
		{name: "router with shard-index", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-shard-index", "0"}, wantErr: "-shard-index contradicts -mode router"},
		{name: "router shard count mismatch", args: []string{"-mode", "router", "-shards", "3", "-shard-addrs", "a:1,b:2"}, wantErr: "-shards 3 contradicts -shard-addrs (2 addresses)"},
		{name: "router empty addr", args: []string{"-mode", "router", "-shard-addrs", "a:1,,b:2"}, wantErr: "empty address"},
		{name: "positional garbage", args: []string{"extra"}, wantErr: "unexpected arguments"},
		{name: "incremental is unknown", args: []string{"-incremental"}, wantErr: "flag provided but not defined: -incremental"},
		{name: "bad scale still caught", args: []string{"-scale", "0"}, wantErr: "invalid -scale"},
		{name: "single with hijack", args: []string{"-hijack", "0.5", "-hijack-seed", "7", "-rov-fraction", "0.25"}},
		{name: "shard with hijack", args: []string{"-mode", "shard", "-shards", "2", "-shard-index", "0", "-hijack", "1"}},
		{name: "hijack out of range", args: []string{"-hijack", "1.5"}, wantErr: "invalid -hijack"},
		{name: "hijack negative", args: []string{"-hijack", "-0.1"}, wantErr: "invalid -hijack"},
		{name: "rov out of range", args: []string{"-rov-fraction", "2"}, wantErr: "invalid -rov-fraction"},
		{name: "router with hijack", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-hijack", "0.5"}, wantErr: "-hijack contradicts -mode router"},
		{name: "router with hijack-seed", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-hijack-seed", "7"}, wantErr: "-hijack-seed contradicts -mode router"},
		{name: "router with rov-fraction", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-rov-fraction", "1"}, wantErr: "-rov-fraction contradicts -mode router"},
		{name: "single with data dir", args: []string{"-data-dir", "/tmp/archive", "-archive-retain", "16"}},
		{name: "shard with data dir", args: []string{"-mode", "shard", "-shards", "2", "-shard-index", "0", "-data-dir", "/tmp/archive"}},
		{name: "archive retain negative", args: []string{"-data-dir", "/tmp/a", "-archive-retain", "-1"}, wantErr: "invalid -archive-retain"},
		{name: "archive retain too large", args: []string{"-data-dir", "/tmp/a", "-archive-retain", "4096"}, wantErr: "invalid -archive-retain"},
		{name: "archive retain without data dir", args: []string{"-archive-retain", "8"}, wantErr: "-archive-retain needs -data-dir"},
		{name: "router with data dir", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-data-dir", "/tmp/a"}, wantErr: "-data-dir contradicts -mode router"},
		{name: "router with archive retain", args: []string{"-mode", "router", "-shard-addrs", "a:1", "-archive-retain", "4"}, wantErr: "-archive-retain contradicts -mode router"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFlags(%v): %v", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseFlags(%v) accepted (mode %q), want error containing %q", tc.args, cfg.mode, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseFlags(%v) error %q, want substring %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestParseFlagsRouterDerivations pins the router-mode conveniences:
// schemeless addresses gain http://, and -shards is derived from the
// address list when not given.
func TestParseFlagsRouterDerivations(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-mode", "router",
		"-shard-addrs", "localhost:9001, https://shard1.internal:9002 ,localhost:9003",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://localhost:9001", "https://shard1.internal:9002", "http://localhost:9003"}
	if len(cfg.shardAddrs) != len(want) {
		t.Fatalf("shardAddrs = %v, want %v", cfg.shardAddrs, want)
	}
	for i := range want {
		if cfg.shardAddrs[i] != want[i] {
			t.Fatalf("shardAddrs[%d] = %q, want %q", i, cfg.shardAddrs[i], want[i])
		}
	}
	if cfg.shards != 3 {
		t.Fatalf("shards = %d, want 3 (derived from the address list)", cfg.shards)
	}
}
