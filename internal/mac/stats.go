package mac

// Stats counts MAC-level events for one terminal. The experiment layer
// aggregates them across nodes; the asymmetric-link analyses (paper
// Figures 4 and 6) read the collision counters directly.
type Stats struct {
	// Frames transmitted, by kind.
	TxRTS, TxCTS, TxData, TxAck, TxBroadcast uint64
	// RxClean counts decodable receptions addressed to this node or
	// broadcast; RxOverheard counts decodable frames for others (NAV
	// fodder); RxError counts sensed-but-undecodable receptions —
	// collisions and out-of-zone frames.
	RxClean, RxOverheard, RxError uint64
	// ErrDataForMe/ErrCTSForMe/ErrRTSForMe/ErrAckForMe break down
	// errored receptions of frames that were addressed to this node —
	// the collisions that actually cost an exchange (the asymmetric-
	// link damage of Figures 4 and 6).
	ErrDataForMe, ErrCTSForMe, ErrRTSForMe, ErrAckForMe uint64
	// Timeouts and retries.
	CTSTimeout, ACKTimeout, DataTimeout uint64
	Retries                             uint64
	// Drops: retry-limit exceeded (reported to routing as link
	// failures) and interface queue overflow.
	DropRetry, DropQueue uint64
	// ImplicitRetx counts PCMAC retransmissions triggered by a CTS
	// whose (session, seq) echo did not match the sent-table.
	ImplicitRetx uint64
	// ToleranceDefer counts transmissions PCMAC postponed because they
	// would have violated an active receiver's noise tolerance.
	ToleranceDefer uint64
	// ToleranceAnnounce counts power-control channel broadcasts sent.
	ToleranceAnnounce uint64
	// Delivered counts unicast data packets handed to the upper layer.
	Delivered uint64
	// Duplicates counts received data packets suppressed as duplicates.
	Duplicates uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.TxRTS += other.TxRTS
	s.TxCTS += other.TxCTS
	s.TxData += other.TxData
	s.TxAck += other.TxAck
	s.TxBroadcast += other.TxBroadcast
	s.RxClean += other.RxClean
	s.RxOverheard += other.RxOverheard
	s.RxError += other.RxError
	s.ErrDataForMe += other.ErrDataForMe
	s.ErrCTSForMe += other.ErrCTSForMe
	s.ErrRTSForMe += other.ErrRTSForMe
	s.ErrAckForMe += other.ErrAckForMe
	s.CTSTimeout += other.CTSTimeout
	s.ACKTimeout += other.ACKTimeout
	s.DataTimeout += other.DataTimeout
	s.Retries += other.Retries
	s.DropRetry += other.DropRetry
	s.DropQueue += other.DropQueue
	s.ImplicitRetx += other.ImplicitRetx
	s.ToleranceDefer += other.ToleranceDefer
	s.ToleranceAnnounce += other.ToleranceAnnounce
	s.Delivered += other.Delivered
	s.Duplicates += other.Duplicates
}
