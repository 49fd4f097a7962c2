package simnet

import "time"

// GeoModel models a geo-distributed deployment: nodes are assigned
// round-robin to regions; delay = inter-region base RTT/2 + small jitter.
// It reproduces the paper's 4-region WAN (France, US, Australia, Tokyo)
// and its single-site LAN. It has no bandwidth term: the paper's 1 Gbps
// interfaces are the Network's NIC model (Network.SetNICBps), the
// simulator's only bandwidth charge.
type GeoModel struct {
	// RegionOf maps a node index to a region index.
	RegionOf func(node int) int
	// BaseLatency[i][j] is the one-way propagation delay region i -> j.
	BaseLatency [][]time.Duration
	// JitterFrac is the max uniform jitter as a fraction of base latency.
	JitterFrac float64
	// LocalDelay is the delay for self-sends and intra-process handoff.
	LocalDelay time.Duration
}

// base returns the propagation delay of the link from -> to: LocalDelay
// for self-sends and for pairs whose regions the table leaves at zero (the
// same site). NewNetwork reads it once per link; jitter is added per
// message (Network.Delay).
func (g *GeoModel) base(from, to int) time.Duration {
	if from != to {
		if d := g.BaseLatency[g.RegionOf(from)][g.RegionOf(to)]; d != 0 {
			return d
		}
	}
	return g.LocalDelay
}

// wanRTT holds measured-ish RTTs (ms) between the paper's four regions:
// 0 France (eu-west-3), 1 US (us-east-1), 2 Australia (ap-southeast-2),
// 3 Tokyo (ap-northeast-1). One-way delay is RTT/2.
var wanRTT = [4][4]float64{
	{0, 80, 280, 230},
	{80, 0, 200, 150},
	{280, 200, 0, 110},
	{230, 150, 110, 0},
}

// NewWAN returns the paper's WAN profile: nodes spread round-robin over the
// four regions, 5% jitter.
func NewWAN() *GeoModel {
	base := make([][]time.Duration, 4)
	for i := range base {
		base[i] = make([]time.Duration, 4)
		for j := range base[i] {
			base[i][j] = time.Duration(wanRTT[i][j] / 2 * float64(time.Millisecond))
		}
	}
	return &GeoModel{
		RegionOf:    func(node int) int { return node % 4 },
		BaseLatency: base,
		JitterFrac:  0.05,
		LocalDelay:  50 * time.Microsecond,
	}
}

// NewLAN returns the paper's LAN profile: a single site with sub-millisecond
// latency, 5% jitter.
func NewLAN() *GeoModel {
	return &GeoModel{
		RegionOf:    func(node int) int { return 0 },
		BaseLatency: [][]time.Duration{{500 * time.Microsecond}},
		JitterFrac:  0.05,
		LocalDelay:  50 * time.Microsecond,
	}
}

// NewFixed returns a uniform profile for unit tests: every link, self-sends
// included, takes exactly d — one region, no jitter. A message's size
// costs nothing unless the Network's NIC model is on.
func NewFixed(d time.Duration) *GeoModel {
	return &GeoModel{
		RegionOf:    func(int) int { return 0 },
		BaseLatency: [][]time.Duration{{d}},
		LocalDelay:  d,
	}
}
