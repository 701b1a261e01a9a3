package main

import (
	"strings"
	"testing"
)

func TestCheckScale(t *testing.T) {
	cases := []struct {
		users, repeats, secs, workers int
		bad                           string // a substring of the error, "" if accepted
	}{
		{0, 0, 0, 0, ""},
		{1, 1, 1, 1, ""},
		{5, 3, 150, 8, ""},
		{6, 0, 0, 0, "-users"},
		{9, 0, 0, 0, "-users"},
		{-1, 0, 0, 0, "-users"},
		{0, -1, 0, 0, "-repeats"},
		{0, 0, -30, 0, "-session-seconds"},
		{0, 0, 0, -2, "-workers"},
	}
	for _, tc := range cases {
		err := checkScale(tc.users, tc.repeats, tc.secs, tc.workers)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("checkScale(%d, %d, %d, %d) = %v, want nil", tc.users, tc.repeats, tc.secs, tc.workers, err)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad)):
			t.Errorf("checkScale(%d, %d, %d, %d) = %v, want an error naming %s", tc.users, tc.repeats, tc.secs, tc.workers, err, tc.bad)
		}
	}
}
