#include "workloads/workloads.hh"

#include "common/logging.hh"

namespace arl::workloads
{

const std::vector<WorkloadInfo> &
allWorkloads()
{
    static const std::vector<WorkloadInfo> registry = {
        {"go_like", "099.go", false, 10000, buildGoLike},
        {"m88ksim_like", "124.m88ksim", false, 250000, buildM88ksimLike},
        {"gcc_like", "126.gcc", false, 40000, buildGccLike},
        {"compress_like", "129.compress", false, 700000,
         buildCompressLike},
        {"li_like", "130.li", false, 5000, buildLiLike},
        {"ijpeg_like", "132.ijpeg", false, 80000, buildIjpegLike},
        {"perl_like", "134.perl", false, 5000, buildPerlLike},
        {"vortex_like", "147.vortex", false, 10000, buildVortexLike},
        {"tomcatv_like", "101.tomcatv", true, 60000, buildTomcatvLike},
        {"swim_like", "102.swim", true, 110000, buildSwimLike},
        {"su2cor_like", "103.su2cor", true, 210000, buildSu2corLike},
        {"mgrid_like", "107.mgrid", true, 110000, buildMgridLike},
    };
    return registry;
}

const WorkloadInfo &
workloadByName(const std::string &name)
{
    for (const WorkloadInfo &info : allWorkloads()) {
        if (info.name == name)
            return info;
    }
    fatal("unknown workload '%s'", name.c_str());
}

std::shared_ptr<vm::Program>
buildWorkload(const std::string &name, unsigned scale)
{
    return workloadByName(name).build(scale);
}

} // namespace arl::workloads
