package phys

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/sim"
)

// Transmission is one frame in flight on a channel. The payload is
// opaque to the physical layer; the MAC layer stores its frame there.
type Transmission struct {
	// Seq is a channel-unique identifier, useful in traces.
	Seq uint64
	// From is the transmitting radio.
	From *Radio
	// PowerW is the radiated power in watts.
	PowerW float64
	// Bits is the frame length on the air, for bookkeeping.
	Bits int
	// Start is when the transmitter began emitting; Duration is the
	// airtime.
	Start    sim.Time
	Duration sim.Duration
	// Payload is the MAC frame being carried.
	Payload any
	// SrcPos is the transmitter position captured at Start.
	SrcPos geom.Point
}

// End returns the instant the transmitter stops emitting.
func (t *Transmission) End() sim.Time { return t.Start.Add(t.Duration) }

func (t *Transmission) String() string {
	return fmt.Sprintf("tx#%d from r%d %.1fmW %dbits @%v", t.Seq, t.From.ID(), t.PowerW*1e3, t.Bits, t.Start)
}

// Ranger inverts ReceivedPower: the distance at which a given transmit
// power decays to a threshold. Every deterministic model must implement
// it; the channel derives a delivery cutoff from it, so out-of-range
// radios are pruned by the neighbour lists and one geom.Dist2 comparison
// instead of a full propagation evaluation.
type Ranger interface {
	RangeForTxPower(txPower, thresh float64) float64
}

// linkEntry is one receiver in a transmitter's cached link row: the
// received power at the row's transmit power (the deterministic mean
// when the channel fades), and the speed-of-light propagation delay.
type linkEntry struct {
	to    *Radio
	prW   float64
	delay sim.Duration
}

// linkRow caches, for one (transmitter, power level) pair, the set of
// radios a frame can reach and the per-link mean gain and delay. Rows
// are built lazily on first transmit and reused while the position epoch
// (and the channel's radio set) is unchanged.
type linkRow struct {
	epoch     uint64
	attachGen uint64
	entries   []linkEntry
}

// nbrList is a Verlet neighbour list for one (transmitter, power level)
// pair: the attach indices, ascending, of the radios that lay within
// cutoff·(1+nbrSkinFrac) of the transmitter when it was built. A row
// rebuild walks it instead of every radio on the channel.
//
// Under a motion bound (Channel.SetMaxSpeed) the distance between two
// radios changes by at most 2·maxSpeed·(now−builtAt) — both endpoints
// move — so while that stays within the skin, every radio now inside
// the cutoff is still on the list. The list is only consulted when the
// row's entries are stale, which under a position-epoch source means
// the epoch moved on; so without a bound (maxSpeed < 0) it is rebuilt
// at every new epoch, and with maxSpeed == 0 it is built once.
type nbrList struct {
	idx       []int32
	builtAt   sim.Time
	attachGen uint64 // c.attachGen at build; 0 = never built
}

// nbrSkinFrac sets the neighbour-list skin as a fraction of the row's
// delivery cutoff. A wider skin rebuilds less often but walks more
// candidates per row rebuild; at 0.1 a max-power list (cutoff ~550 m)
// stays valid for ~9 simulated seconds at 3 m/s.
const nbrSkinFrac = 0.1

// Channel is a shared broadcast medium: every transmission deposits
// power at every attached radio according to the propagation model, with
// speed-of-light delay. PCMAC's separate power-control channel is simply
// a second Channel holding the same radios' twins (paper assumption 1:
// the two channels do not interfere but share propagation behaviour).
//
// The hot path is cached: per (transmitter, power level), the channel
// keeps a link row of in-range receivers with their mean gain and
// propagation delay, so a transmit walks a pruned neighbor slice instead
// of evaluating the propagation model against every radio. Rows are
// invalidated by the position epoch (SetPositionEpoch) and by radio
// attachment; with no epoch source the channel assumes positions may
// change at any time and rebuilds the transmitter's row per frame, which
// preserves exact semantics at the pre-cache cost. Deterministic row
// builds walk the row's neighbour list (nbrList) — O(neighbors) instead
// of O(radios) per rebuild — which survives bounded motion via
// SetMaxSpeed.
type Channel struct {
	sched *sim.Scheduler
	model Propagation
	par   Params

	radios []*Radio
	seq    uint64

	// fade is non-nil when model is a *Shadowing: rows then cache the
	// deterministic mean from the base model and each delivery applies a
	// fresh dB draw, so fading sweeps keep their per-frame variation
	// (and their exact RNG stream) while still skipping the geometry.
	fade *Shadowing
	// ranger is the model's range inversion, set when fade is nil.
	ranger Ranger

	// posEpoch reports the current position epoch; nil means unknown
	// mobility (every instant is a new epoch). Same epoch promises all
	// radio positions unchanged.
	posEpoch func() uint64

	// attachGen invalidates rows when radios attach after rows built.
	attachGen uint64

	// cacheOff selects the uncached reference walk (SetLinkCache).
	cacheOff bool

	// maxSpeed is the SetMaxSpeed motion bound in m/s (< 0: unknown,
	// neighbour lists are rebuilt with every row).
	maxSpeed float64

	// scratch is the row reused for epoch-less (assume-mobile) builds.
	scratch linkRow

	// deliverFloorW prunes deliveries below the carrier-sense
	// threshold. This matches the ns-2 PHY the paper used: frames too
	// weak to sense are dropped at the interface and contribute
	// neither carrier nor interference. (A physically stricter model
	// would integrate them into the noise floor; ns-2's evaluation —
	// and therefore the paper's — does not.)
	deliverFloorW float64
}

// NewChannel creates an empty channel using the given propagation model
// and constants. A model is either a *Shadowing or deterministic, and a
// deterministic model must implement Ranger; NewChannel panics on one
// that does not.
func NewChannel(sched *sim.Scheduler, model Propagation, par Params) *Channel {
	c := &Channel{
		sched:         sched,
		model:         model,
		par:           par,
		deliverFloorW: par.CsThreshW,
		maxSpeed:      -1, // unknown until SetMaxSpeed promises a bound
	}
	if sh, ok := model.(*Shadowing); ok {
		c.fade = sh
		return c
	}
	rg, ok := model.(Ranger)
	if !ok {
		panic(fmt.Sprintf("phys: deterministic propagation model %q does not implement Ranger", model.Name()))
	}
	c.ranger = rg
	return c
}

// Params returns the channel's physical constants.
func (c *Channel) Params() Params { return c.par }

// Model returns the channel's propagation model.
func (c *Channel) Model() Propagation { return c.model }

// Scheduler returns the event scheduler the channel runs on.
func (c *Channel) Scheduler() *sim.Scheduler { return c.sched }

// SetPositionEpoch installs the position-epoch source. The contract: as
// long as fn returns the same value, every attached radio's position is
// unchanged. Static topologies pass a constant; mobile scenarios pass a
// mobility.Epochs counter. Without a source the channel assumes any
// instant may have moved every node.
func (c *Channel) SetPositionEpoch(fn func() uint64) { c.posEpoch = fn }

// SetMaxSpeed promises that no attached radio's position changes faster
// than mps metres per second of simulated time (0 = nobody ever moves).
// Neighbour lists use the bound to stay valid across bounded motion
// instead of being rebuilt with every row; scenarios pass their waypoint
// SpeedMax (or 0 for pinned topologies). Without the promise every row
// rebuild rescans all radios, which preserves exact semantics at O(N)
// per rebuild.
func (c *Channel) SetMaxSpeed(mps float64) { c.maxSpeed = mps }

// SetLinkCache enables or disables the link-row cache. Disabling selects
// transmitUncached, the per-frame walk of every radio through the full
// propagation model — the reference that both the cache and the
// neighbour lists are tested against. Results are identical either way;
// only speed differs.
func (c *Channel) SetLinkCache(enabled bool) { c.cacheOff = !enabled }

// AttachRadio creates a radio on this channel at the position reported
// by pos (sampled lazily, so mobile nodes just pass their position
// function) and delivers events to h.
func (c *Channel) AttachRadio(id int, pos func() geom.Point, h Handler) *Radio {
	r := &Radio{
		ch:      c,
		id:      id,
		pos:     pos,
		h:       h,
		current: -1,
	}
	c.radios = append(c.radios, r)
	c.attachGen++ // existing cached rows no longer cover the new radio
	return r
}

// Radios returns all radios attached to the channel.
func (c *Channel) Radios() []*Radio { return c.radios }

// buildRow fills row with the link entries for radio r transmitting at
// powerW, using positions sampled now. nl is the neighbour list of r's
// own row at powerW, even when row is the shared scratch row.
func (c *Channel) buildRow(row *linkRow, nl *nbrList, r *Radio, powerW float64) {
	row.entries = row.entries[:0]
	row.attachGen = c.attachGen
	src := r.pos()
	if c.fade != nil {
		// Fading: the floor check depends on the per-delivery draw, so
		// every radio stays in the row and only the deterministic mean
		// is cached. (A mean-based cutoff would change which frames a
		// lucky fade can deliver — and desync the RNG stream.)
		for _, o := range c.radios {
			if o == r {
				continue
			}
			dist := src.Dist(o.pos())
			row.entries = append(row.entries, linkEntry{
				to:    o,
				prW:   c.fade.MeanReceivedPower(powerW, dist),
				delay: sim.DurationOf(dist / SpeedOfLight),
			})
		}
		return
	}
	// Deterministic model: prune to radios that can sense the frame.
	// The neighbour list restricts the walk to a superset of the cutoff
	// disk, in attach order, and a squared-distance check skips the
	// propagation evaluation for far candidates. The tiny relative
	// slack keeps radios at the exact boundary inside the exact
	// pr-vs-floor check below, so pruning never changes which radios
	// deliver.
	cutoff := c.ranger.RangeForTxPower(powerW, c.deliverFloorW) * (1 + 1e-9)
	cutoff2 := cutoff * cutoff
	for _, k := range c.neighbors(nl, r, src, cutoff) {
		o := c.radios[k]
		p := o.pos()
		if src.Dist2(p) > cutoff2 {
			continue
		}
		dist := src.Dist(p)
		pr := c.model.ReceivedPower(powerW, dist)
		if pr < c.deliverFloorW {
			continue
		}
		row.entries = append(row.entries, linkEntry{
			to:    o,
			prW:   pr,
			delay: sim.DurationOf(dist / SpeedOfLight),
		})
	}
}

// neighbors returns nl's attach indices, rebuilding the list from src
// (r's current position) by one attach-order scan of every radio unless
// the motion bound proves it still covers the cutoff disk.
func (c *Channel) neighbors(nl *nbrList, r *Radio, src geom.Point, cutoff float64) []int32 {
	now := c.sched.Now()
	skin := cutoff * nbrSkinFrac
	if nl.attachGen == c.attachGen && c.maxSpeed >= 0 &&
		2*c.maxSpeed*now.Sub(nl.builtAt).Seconds() <= skin {
		return nl.idx
	}
	reach := cutoff + skin
	reach2 := reach * reach
	nl.idx = nl.idx[:0]
	for i, o := range c.radios {
		if o != r && src.Dist2(o.pos()) <= reach2 {
			nl.idx = append(nl.idx, int32(i))
		}
	}
	nl.builtAt = now
	nl.attachGen = c.attachGen
	return nl.idx
}

// linkRowFor returns the (possibly cached) link row for r at powerW.
func (c *Channel) linkRowFor(r *Radio, powerW float64) *linkRow {
	pr, cached := r.rowFor(powerW)
	if c.posEpoch == nil {
		// Unknown mobility: rebuild into the shared scratch row, reusing
		// one backing array. The neighbour list still lives on r's own
		// row: a list left on the scratch row would serve the next
		// transmitter.
		c.buildRow(&c.scratch, &pr.nbrs, r, powerW)
		return &c.scratch
	}
	epoch := c.posEpoch()
	row := &pr.linkRow
	if !cached || row.epoch != epoch || row.attachGen != c.attachGen {
		c.buildRow(row, &pr.nbrs, r, powerW)
		row.epoch = epoch
	}
	return row
}

// transmit starts a frame on the air from r. It is called by
// Radio.Transmit, which validates state.
func (c *Channel) transmit(r *Radio, powerW float64, bits int, dur sim.Duration, payload any) *Transmission {
	c.seq++
	tx := &Transmission{
		Seq:      c.seq,
		From:     r,
		PowerW:   powerW,
		Bits:     bits,
		Start:    c.sched.Now(),
		Duration: dur,
		Payload:  payload,
		SrcPos:   r.pos(),
	}
	if c.cacheOff {
		c.transmitUncached(tx)
		return tx
	}
	row := c.linkRowFor(r, powerW)
	if c.fade != nil {
		for i := range row.entries {
			en := &row.entries[i]
			pr := en.prW * c.fade.Fade()
			if pr < c.deliverFloorW {
				continue
			}
			c.sched.ScheduleEvent(en.delay, en.to, evBeginArrival, tx, pr)
			c.sched.ScheduleEvent(en.delay+dur, en.to, evEndArrival, tx, 0)
		}
		return tx
	}
	for i := range row.entries {
		en := &row.entries[i]
		c.sched.ScheduleEvent(en.delay, en.to, evBeginArrival, tx, en.prW)
		c.sched.ScheduleEvent(en.delay+dur, en.to, evEndArrival, tx, 0)
	}
	return tx
}

// transmitUncached is the reference delivery path: every attached radio,
// the full propagation model, per frame — no link row, no neighbour
// list, no cutoff. It must stay behaviourally identical to the cached
// path; the scenario reference test diffs whole simulations between the
// two.
func (c *Channel) transmitUncached(tx *Transmission) {
	for _, o := range c.radios {
		if o == tx.From {
			continue
		}
		dist := tx.SrcPos.Dist(o.pos())
		pr := c.model.ReceivedPower(tx.PowerW, dist)
		if pr < c.deliverFloorW {
			continue
		}
		delay := sim.DurationOf(dist / SpeedOfLight)
		c.sched.ScheduleEvent(delay, o, evBeginArrival, tx, pr)
		c.sched.ScheduleEvent(delay+tx.Duration, o, evEndArrival, tx, 0)
	}
}
