package state

// SetProjSetEpochs positions both stamp epochs of ps, so a test can drive
// the direct table's uint16 and the hashed table's uint32 epoch across
// their wraps without tens of thousands of calls.
func SetProjSetEpochs(ps *ProjSet, direct uint16, hashed uint32) {
	ps.directEpoch, ps.epoch = direct, hashed
}
