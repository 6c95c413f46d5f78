package omac

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"pixel/internal/optsim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the ledger golden")

// goldenOperands draws a seeded Figure 2 window for lane count l and
// precision bits, plus one pair of signed vectors of length l.
func goldenOperands(l, bits int) (inputs [][]uint64, synapses [][][]uint64, ns, ss []int64) {
	rng := rand.New(rand.NewSource(int64(100*l + bits)))
	word := func() uint64 { return uint64(rng.Intn(1 << uint(bits))) }
	signed := func() int64 { return int64(rng.Intn(1<<uint(bits))) - 1<<uint(bits-1) }
	inputs = make([][]uint64, l)
	for i := range inputs {
		inputs[i] = make([]uint64, l)
		for j := range inputs[i] {
			inputs[i][j] = word()
		}
	}
	synapses = make([][][]uint64, l)
	for k := range synapses {
		synapses[k] = make([][]uint64, l)
		for i := range synapses[k] {
			synapses[k][i] = make([]uint64, l)
			for j := range synapses[k][i] {
				synapses[k][i][j] = word()
			}
		}
	}
	ns, ss = make([]int64, l), make([]int64, l)
	for i := range ns {
		ns[i], ss[i] = signed(), signed()
	}
	return inputs, synapses, ns, ss
}

// ledgerLine renders a case's results and every ledger category's
// energy, then the latency, as exact hex floats in sorted category
// order.
func ledgerLine(name string, results any, led *optsim.Ledger) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %v", name, results)
	energy := led.Breakdown()
	cats := make([]string, 0, len(energy))
	for c := range energy {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		fmt.Fprintf(&b, " %s=%s", c, strconv.FormatFloat(energy[c], 'x', -1, 64))
	}
	fmt.Fprintf(&b, " latency=%s\n", strconv.FormatFloat(led.Latency(), 'x', -1, 64))
	return b.String()
}

// opticalUnit is the surface both per-pair units share.
type opticalUnit interface {
	Multiply(neuron, synapse uint64, led *optsim.Ledger) (uint64, error)
	DotProduct(neurons, synapses []uint64, led *optsim.Ledger) (uint64, error)
	SignedDotProduct(ns, ss []int64, led *optsim.Ledger) (int64, error)
}

// TestLedgerGolden pins every ledger category's energy and the latency,
// to the last bit, for each OE/OO unit operation on seeded operands.
// Energy ratios are tested elsewhere; this is the exact record a
// refactor of the datapaths must reproduce.
func TestLedgerGolden(t *testing.T) {
	var out bytes.Buffer
	for _, p := range []struct{ l, bits int }{{2, 4}, {3, 6}, {4, 8}} {
		cfg := DefaultConfig(p.l, p.bits)
		inputs, synapses, ns, ss := goldenOperands(p.l, p.bits)
		newUnits := []struct {
			name string
			mk   func(terms int) (opticalUnit, error)
		}{
			{"OE", func(terms int) (opticalUnit, error) { return NewOEUnit(cfg, terms) }},
			{"OO", func(terms int) (opticalUnit, error) { return NewOOUnit(cfg, terms) }},
		}
		for _, nu := range newUnits {
			prefix := fmt.Sprintf("%s/L%d/B%d", nu.name, p.l, p.bits)
			unit := func(terms int) opticalUnit {
				u, err := nu.mk(terms)
				if err != nil {
					t.Fatalf("%s: %v", prefix, err)
				}
				return u
			}

			u, led := unit(1), optsim.NewLedger()
			var products []uint64
			for j := 0; j < p.l; j++ {
				v, err := u.Multiply(inputs[0][j], synapses[0][0][j], led)
				if err != nil {
					t.Fatalf("%s Multiply: %v", prefix, err)
				}
				products = append(products, v)
			}
			out.WriteString(ledgerLine(prefix+"/Multiply", products, led))

			u, led = unit(p.l), optsim.NewLedger()
			var dots []uint64
			for i := 0; i < p.l; i++ {
				v, err := u.DotProduct(inputs[i], synapses[0][i], led)
				if err != nil {
					t.Fatalf("%s DotProduct: %v", prefix, err)
				}
				dots = append(dots, v)
			}
			out.WriteString(ledgerLine(prefix+"/DotProduct", dots, led))

			led = optsim.NewLedger()
			sv, err := u.SignedDotProduct(ns, ss, led)
			if err != nil {
				t.Fatalf("%s SignedDotProduct: %v", prefix, err)
			}
			out.WriteString(ledgerLine(prefix+"/SignedDotProduct", sv, led))
		}
	}

	path := filepath.Join("testdata", "ledger.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("ledgers differ from %s:\n%s", path, out.Bytes())
	}
}
