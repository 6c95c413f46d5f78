package cnn

import "testing"

func TestAllNetworksValidate(t *testing.T) {
	nets := All()
	if len(nets) != 6 {
		t.Fatalf("expected 6 networks, got %d", len(nets))
	}
	for _, n := range nets {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

// TestVGG16TableI checks every row of the paper's Table I (values in
// millions as printed; 1% tolerance for the paper's rounding).
func TestVGG16TableI(t *testing.T) {
	rows := []struct {
		name               string
		mvm, mul, add, act float64 // millions, as printed
		shape              string
	}{
		{"Conv1", 9.63, 86.7, 89.9, 3.21, "[226,226,3]"}, // paper prints [224,224,3]; see note
		{"Conv2", 206, 1850, 1853, 3.21, "[226,226,64]"},
		{"Conv3", 103, 925, 926, 1.61, "[114,114,64]"},
		{"Conv4", 206, 1850, 1850, 1.61, "[114,114,128]"},
		{"Conv5", 103, 926, 926, 0.803, "[58,58,128]"},
		{"Conv6", 206, 1850, 1850, 0.803, "[58,58,256]"},
		{"Conv7", 103, 925, 925, 0.401, "[30,30,256]"},
		{"Conv8", 206, 1850, 1850, 0.401, "[30,30,512]"},
		{"Conv9", 51.4, 462, 463, 0.100, "[16,16,512]"},
		{"Conv10", 51.4, 462, 463, 0.100, "[16,16,512]"},
		{"FC1", 1e-6, 629, 1259, 629, "[25088]"},
		{"FC2", 1e-6, 16.8, 33.6, 16.8, "[4096]"},
		{"FC3", 1e-6, 16.8, 33.6, 16.8, "[4096]"},
	}
	net := VGG16()
	if len(net.Layers) != len(rows) {
		t.Fatalf("VGG16 has %d layers, want %d", len(net.Layers), len(rows))
	}
	for i, want := range rows {
		l := net.Layers[i]
		if l.Name != want.name {
			t.Errorf("layer %d name = %s, want %s", i, l.Name, want.name)
		}
		c := l.Counts(ModePaper)
		if l.Type == FC {
			// The paper prints MVM = 10^-6 million, i.e. one MVM.
			if c.MVM != 1 {
				t.Errorf("%s: MVM = %v, want 1", l.Name, c.MVM)
			}
		} else if !almostMillions(c.MVM, want.mvm, 0.01) {
			t.Errorf("%s: MVM = %.3gM, want %vM", l.Name, c.MVM/1e6, want.mvm)
		}
		if !almostMillions(c.Mul, want.mul, 0.01) {
			t.Errorf("%s: Mul = %.4gM, want %vM", l.Name, c.Mul/1e6, want.mul)
		}
		if !almostMillions(c.Add, want.add, 0.01) {
			t.Errorf("%s: Add = %.4gM, want %vM", l.Name, c.Add/1e6, want.add)
		}
		if !almostMillions(c.Act, want.act, 0.01) {
			t.Errorf("%s: Act = %.4gM, want %vM", l.Name, c.Act/1e6, want.act)
		}
		if l.InputShape() != want.shape {
			t.Errorf("%s: shape = %s, want %s", l.Name, l.InputShape(), want.shape)
		}
	}
}

// convLayers returns only the network's convolutional layers.
func convLayers(n Network) []Layer {
	var out []Layer
	for _, l := range n.Layers {
		if l.Type == Conv {
			out = append(out, l)
		}
	}
	return out
}

func TestAlexNetKnownMACs(t *testing.T) {
	// Single-tower (ungrouped) AlexNet is ~1.08 GMACs of convolution;
	// the historical 0.66 G figure is for the two-GPU grouped variant.
	net := AlexNet()
	var convMul float64
	for _, l := range convLayers(net) {
		convMul += l.Counts(ModePaper).Mul
	}
	if convMul < 0.95e9 || convMul > 1.2e9 {
		t.Errorf("AlexNet conv multiplies = %.3g, want ~1.08e9", convMul)
	}
	// And the first layer is the canonical 105.4M MACs.
	if got := net.Layers[0].Counts(ModePaper).Mul; got != 11*11*55*55*96*3 {
		t.Errorf("AlexNet Conv1 mul = %v", got)
	}
}

func TestResNet34Structure(t *testing.T) {
	net := ResNet34()
	convs := convLayers(net)
	// 33 main convolutions + 3 projection shortcuts.
	if len(convs) != 36 {
		t.Errorf("ResNet-34 conv layers = %d, want 36 (33 + 3 projections)", len(convs))
	}
	// He et al. report 3.6 billion multiply-adds for ResNet-34.
	var mul float64
	for _, l := range convs {
		mul += l.Counts(ModePaper).Mul
	}
	if mul < 3.2e9 || mul > 4.2e9 {
		t.Errorf("ResNet-34 conv multiplies = %.3g, want ~3.6e9", mul)
	}
}

func TestGoogLeNetStructure(t *testing.T) {
	net := GoogLeNet()
	// 3 stem convs + 9 modules x 6 convs + FC.
	if got := len(convLayers(net)); got != 3+9*6 {
		t.Errorf("GoogLeNet conv layers = %d, want 57", got)
	}
	// ~1.5 GMACs published for Inception-v1.
	var mul float64
	for _, l := range convLayers(net) {
		mul += l.Counts(ModePaper).Mul
	}
	if mul < 1.0e9 || mul > 1.8e9 {
		t.Errorf("GoogLeNet conv multiplies = %.3g, want ~1.4e9", mul)
	}
}

func TestLeNetStructure(t *testing.T) {
	net := LeNet()
	convs := convLayers(net)
	if len(convs) != 2 {
		t.Fatalf("LeNet conv layers = %d, want 2", len(convs))
	}
	// Conv1: 28^2 * 6 * 1 * 25 = 117,600 multiplies.
	if got := convs[0].Counts(ModePaper).Mul; got != 117600 {
		t.Errorf("LeNet Conv1 mul = %v, want 117600", got)
	}
	// Conv2: 10^2 * 16 * 6 * 25 = 240,000 multiplies.
	if got := convs[1].Counts(ModePaper).Mul; got != 240000 {
		t.Errorf("LeNet Conv2 mul = %v, want 240000", got)
	}
}

func TestZFNetFirstLayers(t *testing.T) {
	net := ZFNet()
	if got := net.Layers[0].OutputSize(); got != 110 {
		t.Errorf("ZFNet Conv1 E = %d, want 110", got)
	}
	if got := net.Layers[1].OutputSize(); got != 26 {
		t.Errorf("ZFNet Conv2 E = %d, want 26", got)
	}
}

func TestTotalCountsAccumulate(t *testing.T) {
	net := LeNet()
	total := net.TotalCounts(ModePaper)
	if total.Mul <= 0 || total.Add <= total.Mul || total.Act <= 0 || total.MVM <= 0 {
		t.Errorf("implausible totals %+v", total)
	}
	// Exact mode differs from paper mode on the FC layers.
	exact := net.TotalCounts(ModeExact)
	if exact.Mul >= total.Mul {
		t.Error("LeNet exact FC accounting (In*Out) should be below paper mode (In^2)")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"VGG16", "AlexNet", "ZFNet", "ResNet-34", "LeNet", "GoogLeNet"} {
		n, err := ByName(name)
		if err != nil || n.Name != name {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("NopeNet"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestNetworkValidateRejectsBroken(t *testing.T) {
	if err := (Network{}).Validate(); err == nil {
		t.Error("empty network should fail")
	}
	n := Network{Name: "x", Layers: []Layer{conv("bad", 0, 1, 0, 1, 1, 1)}}
	if err := n.Validate(); err == nil {
		t.Error("broken layer should fail network validation")
	}
}
