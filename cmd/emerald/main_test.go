package main

import (
	"strings"
	"testing"
)

// TestSampledFlagsOK: -sampled accepts what exp.Options carries into
// every region and names the first flag it cannot honour.
func TestSampledFlagsOK(t *testing.T) {
	for _, tc := range []struct {
		set  []string
		flag string // rejected flag; "" = accepted
	}{
		{nil, ""},
		{[]string{"sampled", "workload", "frames", "w", "h", "sample-k", "sample-span"}, ""},
		{[]string{"sampled", "workers", "watchdog", "guard", "every-cycle"}, ""},
		{[]string{"sampled", "trace-events", "trace-start"}, ""},
		{[]string{"sampled", "wt"}, "wt"},
		{[]string{"dump", "sampled"}, "dump"},
		{[]string{"sampled", "stats"}, "stats"},
		{[]string{"sampled", "stats-json"}, "stats-json"},
		{[]string{"sampled", "progress"}, "progress"},
		{[]string{"sampled", "trace-events", "trace-frames"}, "trace-frames"},
	} {
		err := sampledFlagsOK(tc.set)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.set, err)
		case tc.flag != "" && err == nil:
			t.Errorf("%v: accepted, want -%s rejected", tc.set, tc.flag)
		case tc.flag != "" && !strings.Contains(err.Error(), "-"+tc.flag+" "):
			t.Errorf("%v: error %q does not name -%s", tc.set, err, tc.flag)
		}
	}
}
