package romulus

// InTx reports whether a transaction is open.
func (r *Romulus) InTx() bool { return r.inTx }
