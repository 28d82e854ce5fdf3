package sched

import "repro/ftdse/internal/model"

// ListOrder exposes a Static's list order to the external tests.
func (st *Static) ListOrder() []model.ProcID { return st.order }
