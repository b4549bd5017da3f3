package main

import (
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name        string
		users       int
		shards      int
		day, bucket time.Duration
		ok          bool
	}{
		{"defaults", 10_000, 64, 24 * time.Hour, time.Minute, true},
		{"zeros", 0, 0, 0, 0, true},
		{"negative users", -5, 64, 24 * time.Hour, time.Minute, false},
		{"negative shards", 10_000, -3, 24 * time.Hour, time.Minute, false},
		{"negative day", 10_000, 64, -time.Hour, time.Minute, false},
		{"negative bucket", 10_000, 64, 24 * time.Hour, -time.Second, false},
	} {
		err := checkFlags(tc.users, tc.shards, tc.day, tc.bucket)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
