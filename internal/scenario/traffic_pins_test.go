package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"swallow/internal/harness"
)

// trafficShape is the two-flow spec shape the serving benchmark sends:
// one stream of 1500+k tokens across boards and one of 1500 tokens on
// the far column, swept over payloads 8+j and 96.
func trafficShape(k, j int) []byte {
	return []byte(fmt.Sprintf(`{"name":"bench-traffic","grid":{"slices_x":2,"slices_y":2},`+
		`"workload":{"structure":"traffic","flows":[`+
		`{"src":{"x":0,"y":0,"layer":"V"},"dst":{"x":3,"y":7,"layer":"H"},"tokens":%d},`+
		`{"src":{"x":1,"y":1,"layer":"V"},"dst":{"x":2,"y":5,"layer":"V"},"tokens":1500}]},`+
		`"sweep":[{"param":"payload","ints":[%d,96]}]}`, 1500+k, 8+j))
}

// TestTrafficRendersPinned pins the rendered bytes of host-flow specs to
// sha256 digests: the registry's goodput spec file and eight
// parameterisations of the benchmark's traffic shape. Each flow's
// budgeted traffic alone decides these tables, so how the fabric is
// driven once a flow has sent its budget must never move them.
func TestTrafficRendersPinned(t *testing.T) {
	goodput, err := os.ReadFile("../experiments/specs/goodput.json")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec []byte
		want string
	}{
		{"goodput.json", goodput, "5c8ee03731bfbef8f8a2e9f6f429e7aef471a6fb3c4c697f98e4cdd3e51c19da"},
		{"traffic k=0 j=0", trafficShape(0, 0), "d531bf0acc3d1fe68c04cfeaeea9c89c087f4798c3159c231faf1c070bceb9df"},
		{"traffic k=1 j=5", trafficShape(1, 5), "7951ff654dc649cba006e99761edec6f7925030afdb47b5fe510beb7132e8d43"},
		{"traffic k=7 j=20", trafficShape(7, 20), "777670873517948b63c266203cf55337ee42bc447b3859edcf91d6a37870b8fa"},
		{"traffic k=13 j=3", trafficShape(13, 3), "2a181a10a5c471382aa49a2eb88ce07914d70b8b451cde604c8a0ac43e6e50cf"},
		{"traffic k=21 j=63", trafficShape(21, 63), "3b390a33263cd2fe768539a53fb7f1c404b2c825315db8f0987e5969fca66631"},
		{"traffic k=33 j=40", trafficShape(33, 40), "c8772b6be3ad45e2220cd44e2b6ba9fbc2c0204b859c8f1b169a0dc0de4db365"},
		{"traffic k=47 j=12", trafficShape(47, 12), "77de9ea2a398d9e8e2b1eb1f6e5fcb11346774b9852ede9b58da874b1af1c792"},
		{"traffic k=63 j=27", trafficShape(63, 27), "8e3fa38b1fb99d3fb7d28a5155569ca5d00b5dfdb1c4ce06e5ecc5232c43b2c8"},
	}
	for _, tc := range cases {
		spec, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c, err := Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		table, err := c.Artifact.Table(harness.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256([]byte(table.String()))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: render sha256 %s, want %s\n%s", tc.name, got, tc.want, table)
		}
	}
}
