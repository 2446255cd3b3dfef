package lik

// PackKernels lists the kernel that packed each transition matrix the
// engine holds packed, cached and scratch alike.
func PackKernels(e *Engine) []string {
	var names []string
	for _, packs := range append(e.transPack, e.scrTransPack) {
		for _, pb := range packs {
			if pb != nil {
				names = append(names, pb.Kernel())
			}
		}
	}
	return names
}
