package encrypted

import (
	"fmt"
	"testing"
)

// The shared-memory keys are built by concatenation on the hot path;
// they must stay byte-identical to their formatted spelling.
func TestShmKeysSpelling(t *testing.T) {
	for _, i := range []int{0, 1, 7, 10, 255, 4096} {
		for _, c := range []struct{ got, want string }{
			{keyOwn(i), fmt.Sprintf("hs/own/%d", i)},
			{keyOwnCT(i), fmt.Sprintf("hs/ownct/%d", i)},
			{keyNodeCT(i), fmt.Sprintf("hs/nodect/%d", i)},
			{keyNodePT(i), fmt.Sprintf("hs/nodept/%d", i)},
			{keyPT(i, i+3), fmt.Sprintf("hs/pt/%d/%d", i, i+3)},
		} {
			if c.got != c.want {
				t.Fatalf("key %q, want %q", c.got, c.want)
			}
		}
	}
}
