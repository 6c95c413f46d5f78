package optsim

import (
	"fmt"
	"sort"
)

// Circuit is an explicit netlist of photonic elements: nodes with typed
// input/output ports, wired point to point, evaluated in topological
// order. The functional datapaths in package omac compose elements
// directly; Circuit exists for the cases where the topology itself is
// data — programmable photonics, generated layouts, or tests that
// permute structures — and for validating those compositions against
// the direct ones.
type Circuit struct {
	nodes []Node
	// wires maps each (node, input port) to its driving (node, output
	// port).
	wires map[portRef]portRef
}

// Node is one circuit element.
type Node interface {
	// Name labels the node in errors.
	Name() string
	// Ports returns the input and output port counts.
	Ports() (in, out int)
	// Eval transforms the input signals (one per input port, never
	// nil) into output signals (one per output port), charging the
	// ledger.
	Eval(in []*Signal, led *Ledger) ([]*Signal, error)
}

type portRef struct {
	node int
	port int
}

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit {
	return &Circuit{wires: make(map[portRef]portRef)}
}

// Add inserts a node and returns its id.
func (c *Circuit) Add(n Node) int {
	c.nodes = append(c.nodes, n)
	return len(c.nodes) - 1
}

// checkPort validates a node id and port index.
func (c *Circuit) checkPort(node, port int, wantInput bool) error {
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("optsim: node %d out of range", node)
	}
	in, out := c.nodes[node].Ports()
	limit := out
	kind := "output"
	if wantInput {
		limit = in
		kind = "input"
	}
	if port < 0 || port >= limit {
		return fmt.Errorf("optsim: %s %q has no %s port %d", kind, c.nodes[node].Name(), kind, port)
	}
	return nil
}

// Connect wires srcNode's output port to dstNode's input port.
func (c *Circuit) Connect(srcNode, srcPort, dstNode, dstPort int) error {
	if err := c.checkPort(srcNode, srcPort, false); err != nil {
		return err
	}
	if err := c.checkPort(dstNode, dstPort, true); err != nil {
		return err
	}
	dst := portRef{dstNode, dstPort}
	if _, dup := c.wires[dst]; dup {
		return fmt.Errorf("optsim: input port %d of %q already driven", dstPort, c.nodes[dstNode].Name())
	}
	c.wires[dst] = portRef{srcNode, srcPort}
	return nil
}

// topoOrder returns a topological order of the nodes or an error on a
// wiring cycle.
func (c *Circuit) topoOrder() ([]int, error) {
	deps := make(map[int][]int) // node -> upstream nodes
	for dst, src := range c.wires {
		deps[dst.node] = append(deps[dst.node], src.node)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(c.nodes))
	var order []int
	var visit func(n int) error
	visit = func(n int) error {
		switch color[n] {
		case gray:
			return fmt.Errorf("optsim: circuit contains a cycle through %q", c.nodes[n].Name())
		case black:
			return nil
		}
		color[n] = gray
		up := append([]int(nil), deps[n]...)
		sort.Ints(up)
		for _, u := range up {
			if err := visit(u); err != nil {
				return err
			}
		}
		color[n] = black
		order = append(order, n)
		return nil
	}
	for n := range c.nodes {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Run evaluates the circuit and returns every node's output signals,
// indexed [node][port]. Every input port must be driven by a wire.
func (c *Circuit) Run(led *Ledger) ([][]*Signal, error) {
	order, err := c.topoOrder()
	if err != nil {
		return nil, err
	}
	outputs := make([][]*Signal, len(c.nodes))
	for _, n := range order {
		in, _ := c.nodes[n].Ports()
		args := make([]*Signal, in)
		for p := 0; p < in; p++ {
			src, ok := c.wires[portRef{n, p}]
			if !ok {
				return nil, fmt.Errorf("optsim: input port %d of %q is unconnected", p, c.nodes[n].Name())
			}
			out := outputs[src.node]
			if out == nil || src.port >= len(out) || out[src.port] == nil {
				return nil, fmt.Errorf("optsim: %q produced no signal on port %d", c.nodes[src.node].Name(), src.port)
			}
			args[p] = out[src.port].Clone()
		}
		res, err := c.nodes[n].Eval(args, led)
		if err != nil {
			return nil, fmt.Errorf("optsim: node %q: %w", c.nodes[n].Name(), err)
		}
		_, wantOut := c.nodes[n].Ports()
		if len(res) != wantOut {
			return nil, fmt.Errorf("optsim: node %q returned %d outputs, declared %d", c.nodes[n].Name(), len(res), wantOut)
		}
		outputs[n] = res
	}
	return outputs, nil
}
