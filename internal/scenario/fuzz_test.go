package scenario

import (
	"io"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzMaxRouters bounds the topologies FuzzParse builds networks on, so
// one input costs milliseconds.
const fuzzMaxRouters = 64

// FuzzParse feeds arbitrary scripts to Parse and then to the setup
// lines: every value is filled and validated, and the network is built
// when the topology has at most fuzzMaxRouters routers. Neither may
// panic; an input either sets up or is a "line N: ..." error. The timed
// script is not run, and churn plans are validated but not installed
// (installing generates the whole schedule up front).
func FuzzParse(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.scn"))
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("topology arpanet\nprotocol scmp kappa=NaN ack=inf standby=-3 mrouter=19\nat 0 join 5 group=-1\n")
	f.Add("topology random n=10 degree=NaN\nbandwidth 1e-300\nprotocol cbt core=9\nfaults loss-data=2 until=inf\n")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(strings.NewReader(src))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "line ") && !strings.Contains(err.Error(), "token too long") {
				t.Fatalf("Parse error without a line: %v", err)
			}
			return
		}
		st := &state{w: io.Discard}
		for _, c := range s.cmds {
			switch {
			case c.verb == "run":
				return
			case c.verb == "topology" && !fuzzSmall(c):
				return
			case c.verb == "churn" && st.net != nil:
				c.kv = maps.Clone(c.kv)
				_, err = st.churnPlan(c)
			default:
				err = st.exec(c)
			}
			if err != nil {
				if !strings.HasPrefix(err.Error(), "line ") {
					t.Fatalf("error without a line: %v", err)
				}
				return
			}
		}
	})
}

// fuzzSmall reports whether a topology command builds at most
// fuzzMaxRouters routers (an unknown kind or a bad n is left to exec to
// reject).
func fuzzSmall(c command) bool {
	switch kind := c.args; {
	case len(kind) != 1 || kind[0] == "arpanet":
		return true
	case kind[0] == "transitstub":
		return false
	}
	n, err := strconv.Atoi(c.kv["n"])
	return err != nil || n <= fuzzMaxRouters
}
