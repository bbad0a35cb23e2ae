package hw

import (
	"strings"
	"testing"
)

func TestEdgePreset(t *testing.T) {
	e := Edge()
	if err := e.Validate(); err != nil {
		t.Fatalf("edge invalid: %v", err)
	}
	// The paper sets the edge platform to ~16 TOPS.
	if got := e.PeakTOPS(); got < 15 || got > 18 {
		t.Fatalf("edge peak = %.2f TOPS, want ~16", got)
	}
	if e.GBufBytes != 8<<20 {
		t.Fatalf("edge GBUF = %d, want 8 MB", e.GBufBytes)
	}
	if e.DRAMBandwidth != 16 {
		t.Fatalf("edge DRAM = %g GB/s, want 16", e.DRAMBandwidth)
	}
}

func TestCloudPreset(t *testing.T) {
	c := Cloud()
	if err := c.Validate(); err != nil {
		t.Fatalf("cloud invalid: %v", err)
	}
	if got := c.PeakTOPS(); got < 120 || got > 140 {
		t.Fatalf("cloud peak = %.2f TOPS, want ~128", got)
	}
	if c.GBufBytes != 32<<20 {
		t.Fatalf("cloud GBUF = %d, want 32 MB", c.GBufBytes)
	}
	if c.DRAMBandwidth != 128 {
		t.Fatalf("cloud DRAM = %g GB/s, want 128", c.DRAMBandwidth)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ArrayRows = 0 },
		func(c *Config) { c.ArrayCols = -1 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.DRAMBandwidth = 0 },
		func(c *Config) { c.GBufBytes = 0 },
		func(c *Config) { c.GBufBandwidth = 0 },
		func(c *Config) { c.L0Bytes = 0 },
		func(c *Config) { c.VecLanesPerCore = 0 },
	}
	for i, m := range mods {
		c := Edge()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mod %d: invalid config accepted", i)
		}
	}
}

func TestConversions(t *testing.T) {
	e := Edge()
	if e.CyclesToNS(1000) != 1000 { // 1 GHz: 1 cycle = 1 ns
		t.Fatalf("CyclesToNS = %g", e.CyclesToNS(1000))
	}
	e.FreqGHz = 2
	if e.CyclesToNS(1000) != 500 {
		t.Fatalf("CyclesToNS@2GHz = %g", e.CyclesToNS(1000))
	}
	if e.MACsPerCore() != 32*32 {
		t.Fatalf("MACsPerCore = %d", e.MACsPerCore())
	}
}

func TestEnergyOrdering(t *testing.T) {
	en := DefaultEnergy()
	if !(en.DRAMPerByte > en.GBufPerByte && en.GBufPerByte > en.L0PerByte) {
		t.Fatalf("energy ordering violated: %+v", en)
	}
	if en.MACOp <= 0 || en.VecOp <= 0 {
		t.Fatalf("op energies must be positive: %+v", en)
	}
	// DRAM must dominate on-chip traffic by a wide margin for the
	// paper's fusion trade-off to exist at all.
	if en.DRAMPerByte/en.GBufPerByte < 5 {
		t.Fatalf("DRAM/GBUF ratio too small: %+v", en)
	}
}

func TestWithDRAMAndWithGBuf(t *testing.T) {
	e := Edge()
	d := e.WithDRAM(64)
	if d.DRAMBandwidth != 64 || e.DRAMBandwidth != 16 {
		t.Fatal("WithDRAM must not mutate the receiver")
	}
	b := e.WithGBuf(32 << 20)
	if b.GBufBytes != 32<<20 || e.GBufBytes != 8<<20 {
		t.Fatal("WithGBuf must not mutate the receiver")
	}
	if !strings.Contains(b.Name, "32MB") {
		t.Fatalf("derived name = %q", b.Name)
	}
}

func TestString(t *testing.T) {
	e := Edge()
	s := e.String()
	for _, want := range []string{"edge", "TOPS", "GBUF", "GB/s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestPlatform(t *testing.T) {
	e, err := Platform("edge")
	if err != nil || e.Name != "edge" {
		t.Fatalf("edge: %v %v", e.Name, err)
	}
	c, err := Platform("cloud")
	if err != nil || c.Name != "cloud" {
		t.Fatalf("cloud: %v %v", c.Name, err)
	}
	if _, err := Platform("tpu"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}
