from vacuumpairs.constants import CODATA


def test_hbar_c_is_197_327_mev_fm():
    # CODATA 2018: hbar*c = 197.326 980 4 MeV fm; it sets every reduced
    # Compton length hbar*c/(mc^2).
    hbar_c_mev_m = CODATA.hbar_j_s * CODATA.c_m_per_s / CODATA.mev_to_j
    assert abs(hbar_c_mev_m / 197.3269804e-15 - 1.0) < 1e-9


def test_h_c_is_1239_842_mev_fm():
    # CODATA 2018: h*c = 1239.841 984 MeV fm; the box modes' lattice step is
    # h*c/(2L).
    assert abs(CODATA.h_c_mev_m / 1239.841984e-15 - 1.0) < 1e-9
